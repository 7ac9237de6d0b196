package simfs

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// splitDirDistance is the reference directory distance: both
// directories split into components with strings.Split. DirDistance
// walks the strings instead and must agree everywhere.
func splitDirDistance(pathA, pathB string) int {
	da, db := Dir(pathA), Dir(pathB)
	if da == db {
		return 0
	}
	split := func(dir string) []string {
		if dir == "" || dir == "/" {
			return nil
		}
		return strings.Split(strings.TrimPrefix(dir, "/"), "/")
	}
	ca, cb := split(da), split(db)
	common := 0
	for common < len(ca) && common < len(cb) && ca[common] == cb[common] {
		common++
	}
	return (len(ca) - common) + (len(cb) - common)
}

func FuzzDirDistance(f *testing.F) {
	for _, seed := range [][2]string{
		{"/home/u/p/a.c", "/home/u/q/b.c"},
		{"/home/u/p/a.c", "/usr/include/stdio.h"},
		{"", "/"},
		{"/", "//a"},
		{"//a/x", "/a/x"},
		{"a/b/c", "a/b/d/e"},
		{"rel", "/abs"},
		{"/a/b/", "/a/b"},
		{"/a//b/x", "/a/b/x"},
		{"/a/bc/x", "/a/b/x"},
		{"/a/b/c/", "/a/b/"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := DirDistance(a, b), splitDirDistance(a, b); got != want {
			t.Fatalf("DirDistance(%q, %q) = %d, reference %d", a, b, got, want)
		}
	})
}

func TestDirDistanceAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		DirDistance("/home/u/proj1/src/a.c", "/home/u/proj2/include/b.h")
	}); n != 0 {
		t.Errorf("DirDistance allocates %v times per call", n)
	}
}

func TestGetOutOfRange(t *testing.T) {
	fs := newFS()
	a := fs.Create("/a", Regular, 1, 1)
	b := fs.Create("/b", Regular, 1, 2)
	if fs.Get(a.ID) != a || fs.Get(b.ID) != b || fs.MaxID() != b.ID {
		t.Fatalf("Get/MaxID mismatch: %v %v %d", fs.Get(a.ID), fs.Get(b.ID), fs.MaxID())
	}
	for _, id := range []FileID{NoFile, -1, -1 << 31, b.ID + 1, 1<<31 - 1} {
		if f := fs.Get(id); f != nil {
			t.Errorf("Get(%d) = %+v, want nil", id, f)
		}
	}
	if f := New(nil).Get(1); f != nil {
		t.Errorf("Get(1) on an empty table = %+v", f)
	}
}

// encodeFS writes a file table section by hand: next, then one record
// per id.
func encodeFS(next uint64, ids ...FileID) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U64(next)
	w.Int(len(ids))
	for _, id := range ids {
		w.U64(uint64(id))
		w.Str("/f" + string(rune('a'+id)))
		w.U64(uint64(Regular))
		w.I64(10)
		w.Bool(true)
		w.U64(1)
	}
	w.Flush()
	return buf.Bytes()
}

// LoadFS accepts exactly the shape Save writes: ids 1..n in increasing
// order and a next id of n.
func TestLoadFSRejectsOtherShapes(t *testing.T) {
	if _, err := LoadFS(wire.NewReader(bytes.NewReader(encodeFS(3, 1, 2, 3))), nil); err != nil {
		t.Fatalf("canonical table refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"out of order":  encodeFS(3, 1, 3, 2),
		"gap":           encodeFS(3, 1, 2, 4),
		"starts at 0":   encodeFS(3, 0, 1, 2),
		"duplicate":     encodeFS(3, 1, 1, 2),
		"next too big":  encodeFS(4, 1, 2, 3),
		"next too low":  encodeFS(2, 1, 2, 3),
		"next, no file": encodeFS(1),
	} {
		if _, err := LoadFS(wire.NewReader(bytes.NewReader(data)), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// testdata/map_table_fs.bin was written by Save while the table was
// still keyed by a map: 400 random Intern, Create, Remove, Rename (nine
// displacing a live file) and Resize calls over 160 ids. It must load,
// and save back to the same bytes.
func TestMapTableSnapshotResavesIdentical(t *testing.T) {
	data, err := os.ReadFile("testdata/map_table_fs.bin")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := LoadFS(wire.NewReader(bytes.NewReader(data)), stats.NewRand(1))
	if err != nil {
		t.Fatalf("map-keyed table refused: %v", err)
	}
	if fs.MaxID() != 160 || fs.Len() != 151 {
		t.Errorf("loaded %d ids, %d paths; want 160, 151", fs.MaxID(), fs.Len())
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	fs.Save(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("re-saved table differs from the map-keyed table's bytes (%d vs %d bytes)", buf.Len(), len(data))
	}
}
