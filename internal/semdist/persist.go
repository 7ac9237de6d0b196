package semdist

import (
	"fmt"
	"math"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// Save serializes the relationship tables.
func (t *Table) Save(w *wire.Writer) {
	w.U64(t.opens)
	files := t.Files()
	w.Int(len(files))
	for _, id := range files {
		e := t.entryOf(id)
		t.cleanForgotten(e)
		w.U64(uint64(id))
		w.Int(len(e.neighbors))
		for i := range e.neighbors {
			nb := &e.neighbors[i]
			w.U64(uint64(nb.ID))
			w.F64(nb.sumLog)
			w.I64(int64(nb.count))
			w.U64(nb.lastUpdate)
		}
	}
	w.Int(len(t.deleteQueue))
	for _, id := range t.deleteQueue {
		w.U64(uint64(id))
	}
	w.Int(len(t.forgotten))
	for id := range t.forgotten {
		w.U64(uint64(id))
	}
}

// LoadTable reconstructs a table saved with Save.
func LoadTable(r *wire.Reader, p config.Params, rng *stats.Rand) (*Table, error) {
	t := NewTable(p, rng)
	t.opens = r.U64()
	nf := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf < 0 {
		return nil, fmt.Errorf("semdist: negative file count %d", nf)
	}
	for i := 0; i < nf; i++ {
		id := simfs.FileID(r.U64())
		nn := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nn < 0 || nn > 1<<20 {
			return nil, fmt.Errorf("semdist: implausible neighbor count %d", nn)
		}
		ei := t.addEntry(id)
		neighbors := make([]Neighbor, 0, nn)
		for j := 0; j < nn && r.Err() == nil; j++ {
			id, sumLog, count := simfs.FileID(r.U64()), r.F64(), r.I64()
			if count < 0 || count > math.MaxInt32 {
				return nil, fmt.Errorf("semdist: implausible sample count %d", count)
			}
			nb := Neighbor{ID: id, count: int32(count), sumLog: sumLog, lastUpdate: r.U64()}
			nb.reduce()
			neighbors = append(neighbors, nb)
		}
		t.entries[ei].neighbors = neighbors
	}
	nq := r.Int()
	for i := 0; i < nq && r.Err() == nil; i++ {
		id := simfs.FileID(r.U64())
		t.deleteQueue = append(t.deleteQueue, id)
		t.marked[id] = true
	}
	nforg := r.Int()
	for i := 0; i < nforg && r.Err() == nil; i++ {
		t.forgotten[simfs.FileID(r.U64())] = true
	}
	return t, r.Err()
}
