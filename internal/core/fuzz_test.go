package core

import (
	"bytes"
	"testing"
)

// FuzzLoad throws arbitrary bytes at Load. The contract under test: Load
// may reject input with an error but must never panic or hang,
// regardless of what the bytes claim about section lengths or counts.
// The corpus is seeded with a valid v2 snapshot so mutation explores
// the deep section decoders, not just the magic check, and with the
// same snapshot under a version 1 header, which must fail cleanly.
func FuzzLoad(f *testing.F) {
	c, opts := tinyCorrelator()
	var v2 bytes.Buffer
	if err := c.Save(&v2); err != nil {
		f.Fatal(err)
	}
	v1 := bytes.Clone(v2.Bytes())
	v1[7] = 1 // the version varint follows the 1-byte length + 6-byte magic
	if _, err := Load(bytes.NewReader(v1), opts); err == nil {
		f.Fatal("a version 1 header loaded")
	}
	f.Add(v2.Bytes())
	f.Add(v1)
	f.Add([]byte("SEERDB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := Load(bytes.NewReader(data), opts)
		if err == nil && restored == nil {
			t.Error("nil correlator without error")
		}
	})
}
