package observer

import (
	"strings"
	"testing"
)

// splitJoinClean is Clean in its reference form: every input is split on
// "/" and rejoined. FuzzClean holds Clean to it.
func splitJoinClean(path string) string {
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, part)
		}
	}
	return "/" + strings.Join(out, "/")
}

// FuzzClean checks Clean against the split/join form on every input.
func FuzzClean(f *testing.F) {
	for _, s := range []string{
		"/", "", "a", "/a", "/a/", "//a", "/a//b", "/a/./b", "/a/b/../c",
		"/../x", "/a/b/..", "/a/.b/c..", "/.../x", "/home/u/proj/main.c", "a/b",
		"/a/.", "/./", "/..",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, path string) {
		want := splitJoinClean(path)
		if got := Clean(path); got != want {
			t.Fatalf("Clean(%q) = %q, split/join form %q", path, got, want)
		}
	})
}
