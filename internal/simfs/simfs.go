// Package simfs provides the simulated file system underneath the SEER
// correlator, the replication substrate, and the trace-driven simulator.
//
// It is an inode table keyed by absolute pathname: each file has a small
// integer ID (used throughout the correlator in place of strings), a
// kind (regular, directory, symlink, device), and a size. Sizes may be
// assigned from the paper's geometric distribution when the true size is
// unknown (paper §5.1.2). The package also provides the
// directory-distance measure of paper §3.2: zero for files in the same
// directory, increasing for files in more widely-separated directories.
package simfs

import (
	"fmt"
	"sort"
	"strings"

	"github.com/fmg/seer/internal/stats"
)

// FileID identifies a file in an FS. An FS hands IDs out densely from 1
// in creation order and never reuses one, so a deleted and recreated
// pathname gets a fresh ID once the correlator's deletion delay expires.
type FileID int32

// NoFile is the zero FileID, never assigned to a real file.
const NoFile FileID = 0

// Kind classifies a filesystem object (paper §4.6).
type Kind uint8

// The object kinds.
const (
	Regular Kind = iota
	Directory
	Symlink
	Device
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Regular:
		return "regular"
	case Directory:
		return "directory"
	case Symlink:
		return "symlink"
	case Device:
		return "device"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// File is one filesystem object.
type File struct {
	ID   FileID
	Path string
	Kind Kind
	// Size in bytes. Directories and devices report zero; the hoard
	// space calculation conservatively assumes all directories are
	// hoarded by the replication substrate (paper §4.6) so their size
	// does not count against the SEER budget.
	Size int64
	// Exists is false after deletion. The File struct survives deletion
	// so relationship data can be retained through the deletion delay.
	Exists bool
	// CreatedSeq is the trace sequence number at which the file first
	// appeared; files created during a disconnection cannot have been
	// hoarded and are excluded from miss accounting (paper §5.1.2).
	CreatedSeq uint64
}

// FS is the inode table. It is not safe for concurrent use; the
// correlator and simulator are single-threaded over a trace by design
// (trace order is the semantics).
type FS struct {
	byPath map[string]*File
	// byID[id-1] is the file with that ID: IDs are dense, start at 1
	// and are never reused, so the table only grows by appending.
	byID []*File
	rng  *stats.Rand
	// totalBytes tracks the sum of sizes of existing regular files.
	totalBytes int64
}

// New returns an empty FS. The rng is used to draw sizes for files whose
// size is not specified; pass a seeded stats.Rand for reproducibility.
func New(rng *stats.Rand) *FS {
	if rng == nil {
		rng = stats.NewRand(0)
	}
	return &FS{
		byPath: make(map[string]*File),
		rng:    rng,
	}
}

// Len returns the number of pathnames ever seen (existing or deleted).
func (fs *FS) Len() int { return len(fs.byPath) }

// TotalBytes returns the total size of existing regular files.
func (fs *FS) TotalBytes() int64 { return fs.totalBytes }

// Lookup returns the file at path, or nil.
func (fs *FS) Lookup(path string) *File { return fs.byPath[path] }

// Get returns the file with the given ID, or nil.
func (fs *FS) Get(id FileID) *File {
	if id < 1 || int(id) > len(fs.byID) {
		return nil
	}
	return fs.byID[id-1]
}

// MaxID returns the highest ID handed out so far (NoFile when empty).
// Every ID from 1 to MaxID names a file, deleted or not.
func (fs *FS) MaxID() FileID { return FileID(len(fs.byID)) }

// Intern returns the file at path, creating it (existing, with a size
// drawn from the geometric distribution if kind is Regular) when absent
// or previously deleted-and-forgotten. seq stamps CreatedSeq on new
// files.
func (fs *FS) Intern(path string, kind Kind, seq uint64) *File {
	if f := fs.byPath[path]; f != nil {
		if !f.Exists {
			f.Exists = true
			f.CreatedSeq = seq
			if f.Kind == Regular {
				fs.totalBytes += f.Size
			}
		}
		return f
	}
	var size int64
	if kind == Regular {
		size = fs.rng.FileSize()
	}
	return fs.create(path, kind, size, seq)
}

// Create adds a file with an explicit size, replacing any previous
// object at the path. Workload generation uses Create; trace replay
// uses Intern.
func (fs *FS) Create(path string, kind Kind, size int64, seq uint64) *File {
	if f := fs.byPath[path]; f != nil {
		if f.Exists && f.Kind == Regular {
			fs.totalBytes -= f.Size
		}
		f.Kind = kind
		f.Size = size
		f.Exists = true
		f.CreatedSeq = seq
		if kind == Regular {
			fs.totalBytes += size
		}
		return f
	}
	return fs.create(path, kind, size, seq)
}

func (fs *FS) create(path string, kind Kind, size int64, seq uint64) *File {
	f := &File{
		ID:         FileID(len(fs.byID) + 1),
		Path:       path,
		Kind:       kind,
		Size:       size,
		Exists:     true,
		CreatedSeq: seq,
	}
	fs.byPath[path] = f
	fs.byID = append(fs.byID, f)
	if kind == Regular {
		fs.totalBytes += size
	}
	return f
}

// Remove marks the file at path deleted. It reports whether a live file
// was removed.
func (fs *FS) Remove(path string) bool {
	f := fs.byPath[path]
	if f == nil || !f.Exists {
		return false
	}
	f.Exists = false
	if f.Kind == Regular {
		fs.totalBytes -= f.Size
	}
	return true
}

// Rename moves the object at oldPath to newPath, keeping its FileID so
// relationship data follows the file (paper §4.8 treats rename as
// semantically meaningful). Any existing object at newPath is removed.
// It reports whether oldPath existed.
func (fs *FS) Rename(oldPath, newPath string, seq uint64) bool {
	f := fs.byPath[oldPath]
	if f == nil || !f.Exists {
		return false
	}
	if old := fs.byPath[newPath]; old != nil && old != f {
		if old.Exists && old.Kind == Regular {
			fs.totalBytes -= old.Size
		}
		old.Exists = false
		// The displaced file loses its pathname entry; it remains
		// reachable by ID until the correlator forgets it.
		delete(fs.byPath, newPath)
	}
	delete(fs.byPath, oldPath)
	f.Path = newPath
	fs.byPath[newPath] = f
	_ = seq
	return true
}

// Resize updates the size of an existing regular file (workloads grow
// object files, documents, and mailboxes over time).
func (fs *FS) Resize(id FileID, size int64) {
	f := fs.Get(id)
	if f == nil || f.Kind != Regular {
		return
	}
	if f.Exists {
		fs.totalBytes += size - f.Size
	}
	f.Size = size
}

// Files returns all existing files sorted by path (stable iteration for
// deterministic experiments).
func (fs *FS) Files() []*File {
	out := make([]*File, 0, len(fs.byPath))
	for _, f := range fs.byPath {
		if f.Exists {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Dir returns the directory component of path ("" for a bare name).
func Dir(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return ""
	}
	if i == 0 {
		return "/"
	}
	return path[:i]
}

// DirDistance implements the directory-distance measure of paper §3.2:
// zero for files in the same directory, and otherwise the number of
// path components by which the two directories differ (the length of
// the walk from one directory to the other through their lowest common
// ancestor).
func DirDistance(pathA, pathB string) int {
	da, db := Dir(pathA), Dir(pathB)
	if da == db {
		return 0
	}
	a, na := components(da)
	b, nb := components(db)
	common := 0
	for common < na && common < nb {
		ca, restA := nextComponent(a)
		cb, restB := nextComponent(b)
		if ca != cb {
			break
		}
		common++
		a, b = restA, restB
	}
	return (na - common) + (nb - common)
}

// components returns dir without its leading slash and the number of
// slash-separated components in it: none for "" and "/", and an empty
// component for every doubled or trailing slash.
func components(dir string) (string, int) {
	if dir == "" || dir == "/" {
		return "", 0
	}
	dir = strings.TrimPrefix(dir, "/")
	return dir, strings.Count(dir, "/") + 1
}

// nextComponent splits the first component off s.
func nextComponent(s string) (comp, rest string) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}
