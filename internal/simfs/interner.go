package simfs

// Interner assigns dense small-integer indices to a subset of FileIDs.
// Within one FS the IDs are dense already (1..MaxID), but a clustering
// touches only the files the semantic-distance table tracks, a fraction
// of every file the table ever saw. Hot algorithms — clustering above
// all — intern the IDs they touch into a dense 0..n-1 space once, then
// run entirely on slice-indexed state sized to that subset.
//
// Indices are assigned in first-Intern order, so a deterministic
// interning pass yields deterministic indices. An Interner is not safe
// for concurrent mutation; concurrent Lookup/ID calls are safe once
// interning is complete.
type Interner struct {
	idx map[FileID]int32
	ids []FileID
}

// NewInterner returns an empty interner sized for n files.
func NewInterner(n int) *Interner {
	return &Interner{idx: make(map[FileID]int32, n), ids: make([]FileID, 0, n)}
}

// Intern returns the dense index for id, assigning the next free index
// on first sight.
func (in *Interner) Intern(id FileID) int32 {
	if i, ok := in.idx[id]; ok {
		return i
	}
	i := int32(len(in.ids))
	in.idx[id] = i
	in.ids = append(in.ids, id)
	return i
}

// Lookup returns the dense index for id without interning it.
func (in *Interner) Lookup(id FileID) (int32, bool) {
	i, ok := in.idx[id]
	return i, ok
}

// ID returns the FileID at dense index i.
func (in *Interner) ID(i int32) FileID { return in.ids[i] }

// Len returns the number of interned ids.
func (in *Interner) Len() int { return len(in.ids) }
