package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/wire"
	"github.com/fmg/seer/internal/workload"
)

// replayWorkload feeds a scaled machine trace and returns the correlator
// plus the trace for further feeding.
func replayWorkload(t *testing.T, days int) (*Correlator, []trace.Event, Options) {
	t.Helper()
	prof, ok := workload.ProfileByName("C")
	if !ok {
		t.Fatal("no profile C")
	}
	gen := workload.NewGenerator(prof.Light(days), 1)
	tr := gen.Generate()
	p := config.Defaults()
	p.Window = 20
	opts := Options{Params: &p, Seed: 5, DirSize: gen.DirSize}
	c := New(opts)
	for _, ev := range tr.Events {
		c.Feed(ev)
	}
	return c, tr.Events, opts
}

func plansEqual(t *testing.T, a, b *Correlator) {
	t.Helper()
	pa, pb := a.Plan(), b.Plan()
	if pa.Len() != pb.Len() {
		t.Fatalf("plan lengths differ: %d vs %d", pa.Len(), pb.Len())
	}
	for i := range pa.Entries {
		ea, eb := pa.Entries[i], pb.Entries[i]
		if ea.File.Path != eb.File.Path || ea.Cum != eb.Cum || ea.Reason != eb.Reason {
			t.Fatalf("plan entry %d differs: %s/%d/%v vs %s/%d/%v",
				i, ea.File.Path, ea.Cum, ea.Reason, eb.File.Path, eb.Cum, eb.Reason)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, _, opts := replayWorkload(t, 10)
	orig.AddRelations([]investigate.Relation{{
		Files: []string{"/home/u/proj00/src00.c", "/home/u/proj00/hdr00.h"}, Strength: 5,
	}})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Events() != orig.Events() {
		t.Errorf("events = %d, want %d", restored.Events(), orig.Events())
	}
	if restored.FS().Len() != orig.FS().Len() {
		t.Errorf("files = %d, want %d", restored.FS().Len(), orig.FS().Len())
	}
	if restored.Table().Len() != orig.Table().Len() {
		t.Errorf("tracked = %d, want %d", restored.Table().Len(), orig.Table().Len())
	}
	plansEqual(t, orig, restored)

	// The restored correlator keeps learning: feed identical fresh
	// events to both and the plans must stay identical.
	clk := trace.NewClock(time.Unix(9_000_000, 0))
	for i := 0; i < 50; i++ {
		path := "/home/u/proj01/src00.c"
		if i%2 == 1 {
			path = "/home/u/proj01/hdr00.h"
		}
		ev := clk.Stamp(trace.Event{PID: 900, Op: trace.OpOpen, Path: path, Uid: 1000})
		orig.Feed(ev)
		restored.Feed(ev)
		ev = clk.Stamp(trace.Event{PID: 900, Op: trace.OpClose, Path: path, Uid: 1000})
		orig.Feed(ev)
		restored.Feed(ev)
	}
	plansEqual(t, orig, restored)
}

func TestSaveLoadPreservesObserverState(t *testing.T) {
	orig, _, opts := replayWorkload(t, 10)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	of := orig.Observer().FrequentFiles()
	rf := restored.Observer().FrequentFiles()
	if len(of) != len(rf) {
		t.Errorf("frequent sets differ: %d vs %d", len(of), len(rf))
	}
	// The meaningless-program history survives: find stays filtered.
	if orig.Observer().ProgramMeaningless("find") !=
		restored.Observer().ProgramMeaningless("find") {
		t.Error("program history lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a database"), Options{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(""), Options{}); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated valid prefix.
	orig, _, opts := replayWorkload(t, 5)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := Load(bytes.NewReader(trunc), opts); err == nil {
		t.Error("truncated database accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	orig, _, opts := replayWorkload(t, 5)
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The version varint follows the 1-byte length + 6-byte magic.
	// Version 1 is the seed release's unframed format, which no longer
	// loads.
	for _, v := range []byte{1, 99} {
		b := bytes.Clone(buf.Bytes())
		b[7] = v
		_, err := Load(bytes.NewReader(b), opts)
		if want := fmt.Sprintf("unsupported database version %d", v); err == nil ||
			!strings.Contains(err.Error(), want) {
			t.Errorf("version %d: Load = %v, want %q", v, err, want)
		}
	}
}

func TestSnapshotSizeReasonable(t *testing.T) {
	orig, _, _ := replayWorkload(t, 10)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	perFile := buf.Len() / orig.FS().Len()
	// The paper reports ~1 KB of memory per file (§5.3) and predicts an
	// easy on-disk encoding; ours should be well under that on disk.
	if perFile > 2048 {
		t.Errorf("snapshot uses %d bytes/file, want < 2048", perFile)
	}
}

// tinyCorrelator builds a correlator small enough that its snapshot can
// be attacked byte by byte without the test taking noticeable time.
func tinyCorrelator() (*Correlator, Options) {
	p := config.Defaults()
	p.Window = 4
	opts := Options{Params: &p, Seed: 3}
	c := New(opts)
	clk := trace.NewClock(time.Unix(1_000_000, 0))
	paths := []string{"/a/x.c", "/a/y.h", "/b/z.txt"}
	for i := 0; i < 12; i++ {
		path := paths[i%len(paths)]
		c.Feed(clk.Stamp(trace.Event{PID: 7, Op: trace.OpOpen, Path: path, Uid: 1000}))
		c.Feed(clk.Stamp(trace.Event{PID: 7, Op: trace.OpClose, Path: path, Uid: 1000}))
	}
	return c, opts
}

func TestLoadTruncateEveryByte(t *testing.T) {
	// Every proper prefix of a snapshot must load with an error — never
	// a panic, never silent acceptance of partial state.
	orig, opts := tinyCorrelator()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		if _, err := Load(bytes.NewReader(data[:n]), opts); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
	}
	// The full snapshot still loads.
	if _, err := Load(bytes.NewReader(data), opts); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
}

func TestLoadDetectsEveryBitFlip(t *testing.T) {
	// The v2 framing checksums every section, so any single flipped bit
	// anywhere in the snapshot must be rejected.
	orig, opts := tinyCorrelator()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << bit
			if _, err := Load(bytes.NewReader(flipped), opts); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
		}
	}
}

func TestLoadRejectsNegativeCounts(t *testing.T) {
	// Hand-craft v2 snapshots whose relation / forced-file counts are
	// negative: both must surface as CorruptError, not loop or panic.
	c, opts := tinyCorrelator()
	craft := func(relBody, forcedBody func(*wire.Writer)) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Str(dbMagic)
		w.U64(dbVersion2)
		w.Frame("meta", func(w *wire.Writer) { w.U64(c.events.Load()) })
		w.Frame("fs", func(w *wire.Writer) { c.fs.Save(w) })
		w.Frame("tbl", func(w *wire.Writer) { c.tbl.Save(w) })
		w.Frame("obs", func(w *wire.Writer) { c.obs.Save(w) })
		w.Frame("rel", relBody)
		w.Frame("forced", forcedBody)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := func(w *wire.Writer) { w.Int(0) }
	negative := func(w *wire.Writer) { w.Int(-1) }

	var ce *CorruptError
	_, err := Load(bytes.NewReader(craft(negative, empty)), opts)
	if !errors.As(err, &ce) || ce.Section != "rel" {
		t.Errorf("negative relation count: got %v, want CorruptError in rel", err)
	}
	_, err = Load(bytes.NewReader(craft(empty, negative)), opts)
	if !errors.As(err, &ce) || ce.Section != "forced" {
		t.Errorf("negative forced count: got %v, want CorruptError in forced", err)
	}
}

// The invariant checker passes after a long replay and after a
// save/load cycle; a hand-corrupted table is caught.
func TestCheckInvariants(t *testing.T) {
	orig, _, opts := replayWorkload(t, 15)
	if problems := orig.CheckInvariants(); len(problems) != 0 {
		t.Fatalf("replayed correlator unhealthy: %v", problems)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if problems := restored.CheckInvariants(); len(problems) != 0 {
		t.Fatalf("restored correlator unhealthy: %v", problems)
	}
	// Corrupt: inject a relationship for a file the table never saw.
	restored.Table().Observe(99999, 99998, 1, false)
	if problems := restored.CheckInvariants(); len(problems) == 0 {
		t.Fatal("corruption not detected")
	}
}
