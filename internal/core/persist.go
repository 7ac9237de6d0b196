package core

import (
	"fmt"
	"io"

	"github.com/fmg/seer/internal/cluster"
	"github.com/fmg/seer/internal/semdist"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// The database snapshot format. The paper left the on-disk database as
// a straightforward future optimization (§5.3); this is that feature:
// a daemon can checkpoint months of learned relationships and restore
// them at the next start.
//
// Version 2 wraps every section in a CRC32-C frame with a length
// header (wire.Frame), so corruption is detected at the section that
// suffered it. It is the only format: version 1, a bare concatenation
// of sections that the seed release wrote, no longer loads, and the
// recovery ladder treats such a file like any other unusable snapshot.
const (
	dbMagic    = "SEERDB"
	dbVersion2 = 2
)

// CorruptError reports a structurally invalid value inside a snapshot —
// bytes that decode but cannot describe a correlator (negative counts,
// for example). Framing catches flipped bits; CorruptError catches
// well-formed nonsense.
type CorruptError struct {
	// Section names the snapshot section holding the bad value.
	Section string
	// Detail describes the invalid value.
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("core: corrupt snapshot: %s: %s", e.Section, e.Detail)
}

// Save checkpoints the correlator's durable state: the file table, the
// semantic-distance tables, and the observer's counters and histories.
// Per-process transient state is not saved (a restart behaves like a
// reboot). Investigator relations are saved so a restored daemon keeps
// its external evidence. The snapshot is written in the framed v2
// format.
func (c *Correlator) Save(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Str(dbMagic)
	w.U64(dbVersion2)
	w.Frame("meta", func(w *wire.Writer) {
		w.U64(c.events.Load())
	})
	w.Frame("fs", func(w *wire.Writer) {
		c.fs.Save(w)
	})
	w.Frame("tbl", func(w *wire.Writer) {
		c.tbl.Save(w)
	})
	w.Frame("obs", func(w *wire.Writer) {
		c.obs.Save(w)
	})
	w.Frame("rel", func(w *wire.Writer) {
		w.Int(len(c.extraPairs))
		for _, p := range c.extraPairs {
			w.U64(uint64(p.From))
			w.U64(uint64(p.To))
			w.F64(p.Shared)
		}
	})
	w.Frame("forced", func(w *wire.Writer) {
		forced := c.ForcedFiles()
		w.Int(len(forced))
		for _, id := range forced {
			w.U64(uint64(id))
		}
	})
	return w.Flush()
}

// Load restores a correlator saved with Save. The options supply the
// parameter set, control file and directory sizer, which are
// configuration rather than state. Only the framed v2 format loads.
// Load never panics: arbitrary input yields an error (an unsupported
// version, framing violations, checksum mismatches, or CorruptError for
// decodable nonsense).
func Load(in io.Reader, opts Options) (*Correlator, error) {
	r := wire.NewReader(in)
	if magic := r.Str(); magic != dbMagic {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: not a SEER database (magic %q)", magic)
	}
	v := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if v != dbVersion2 {
		return nil, fmt.Errorf("core: unsupported database version %d", v)
	}
	return loadV2(r, opts)
}

// loadV2 reads the framed section sequence, verifying each section's
// checksum before decoding it.
func loadV2(r *wire.Reader, opts Options) (*Correlator, error) {
	var events uint64
	if err := r.Frame("meta", func(sr *wire.Reader) error {
		events = sr.U64()
		return sr.Err()
	}); err != nil {
		return nil, fmt.Errorf("core: load meta: %w", err)
	}
	seed := opts.Seed
	var fs *simfs.FS
	if err := r.Frame("fs", func(sr *wire.Reader) error {
		var err error
		fs, err = simfs.LoadFS(sr, stats.NewRand(seed))
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: load file table: %w", err)
	}
	opts.FS = fs
	c := New(opts)
	c.events.Store(events)
	if err := r.Frame("tbl", func(sr *wire.Reader) error {
		tbl, err := semdist.LoadTable(sr, c.p, stats.NewRand(seed+1))
		if err == nil {
			c.tbl = tbl
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: load distance table: %w", err)
	}
	if err := r.Frame("obs", func(sr *wire.Reader) error {
		return c.obs.Load(sr)
	}); err != nil {
		return nil, fmt.Errorf("core: load observer: %w", err)
	}
	if err := r.Frame("rel", c.loadRelations); err != nil {
		return nil, err
	}
	if err := r.Frame("forced", c.loadForced); err != nil {
		return nil, err
	}
	return c, nil
}

// loadRelations decodes the investigator-relation section.
func (c *Correlator) loadRelations(r *wire.Reader) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 {
		return &CorruptError{Section: "rel", Detail: fmt.Sprintf("negative relation count %d", n)}
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		c.extraPairs = append(c.extraPairs, cluster.Pair{
			From:   simfs.FileID(r.U64()),
			To:     simfs.FileID(r.U64()),
			Shared: r.F64(),
		})
	}
	return r.Err()
}

// loadForced decodes the forced-file section.
func (c *Correlator) loadForced(r *wire.Reader) error {
	nf := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nf < 0 {
		return &CorruptError{Section: "forced", Detail: fmt.Sprintf("negative forced-file count %d", nf)}
	}
	for i := 0; i < nf && r.Err() == nil; i++ {
		c.forced[simfs.FileID(r.U64())] = true
	}
	return r.Err()
}
