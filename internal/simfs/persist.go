package simfs

import (
	"fmt"

	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// Save serializes the file table: the next ID, then every file in ID
// order.
func (fs *FS) Save(w *wire.Writer) {
	w.U64(uint64(len(fs.byID)))
	w.Int(len(fs.byID))
	for _, f := range fs.byID {
		w.U64(uint64(f.ID))
		w.Str(f.Path)
		w.U64(uint64(f.Kind))
		w.I64(f.Size)
		w.Bool(f.Exists)
		w.U64(f.CreatedSeq)
	}
}

// LoadFS reconstructs a file table saved with Save. rng seeds future
// unknown-size draws. It accepts exactly the shape Save writes: n
// files with IDs 1..n in increasing order, and a next ID of n.
func LoadFS(r *wire.Reader, rng *stats.Rand) (*FS, error) {
	fs := New(rng)
	next := r.U64()
	n := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n < 0 {
		return nil, fmt.Errorf("simfs: negative file count %d", n)
	}
	if next != uint64(n) {
		return nil, fmt.Errorf("simfs: next id %d does not follow %d files", next, n)
	}
	for i := 0; i < n; i++ {
		f := &File{
			ID:         FileID(r.U64()),
			Path:       r.Str(),
			Kind:       Kind(r.U64()),
			Size:       r.I64(),
			Exists:     r.Bool(),
			CreatedSeq: r.U64(),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if int(f.ID) != i+1 {
			return nil, fmt.Errorf("simfs: file %d has id %d, want %d", i, f.ID, i+1)
		}
		fs.byID = append(fs.byID, f)
		// Pathname entries: deleted files displaced by renames may have
		// lost their path slot; latest writer wins (IDs are saved in
		// increasing order so the live file, interned later, wins ties).
		if cur := fs.byPath[f.Path]; cur == nil || !cur.Exists {
			fs.byPath[f.Path] = f
		}
		if f.Exists && f.Kind == Regular {
			fs.totalBytes += f.Size
		}
	}
	return fs, r.Err()
}
