package proc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/fmg/seer/internal/simfs"
)

// collectPairsSeen is collectPairs in its reference form: a per-open
// seen map dedups the recency walk against f and the open files already
// paired at distance 0. TestCollectPairsMatchesSeenMap holds the
// map-free walk to it.
func (s *Stream) collectPairsSeen(f simfs.FileID, seq uint64) []RefPair {
	var pairs []RefPair
	seen := make(map[simfs.FileID]bool, len(s.openFiles)+8)
	seen[f] = true
	if s.mode == Lifetime && len(s.openFiles) > 0 {
		ids := make([]simfs.FileID, 0, len(s.openFiles))
		for of, n := range s.openFiles {
			if n > 0 && of != f {
				ids = append(ids, of)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, of := range ids {
			pairs = append(pairs, RefPair{From: of, Dist: 0})
			seen[of] = true
		}
	}
	window := uint64(s.window)
	horizon := uint64(compensationFactor * s.window)
	for el := s.recency.Front(); el != nil; el = el.Next() {
		ref := el.Value.(*distinctRef)
		if seen[ref.file] {
			continue
		}
		delta := seq - ref.seq
		switch {
		case delta <= window:
			pairs = append(pairs, RefPair{From: ref.file, Dist: s.distance(ref, delta)})
		case delta <= horizon:
			pairs = append(pairs, RefPair{From: ref.file, Dist: s.distance(ref, window), Clamped: true})
		default:
			if s.openFiles[ref.file] == 0 {
				return pairs
			}
		}
		seen[ref.file] = true
	}
	return pairs
}

// checkDistinct fails unless the recency list names each file once and
// nodes indexes exactly the list's elements: the property that makes
// the seen map redundant.
func checkDistinct(t *testing.T, s *Stream) {
	t.Helper()
	files := make(map[simfs.FileID]bool, s.recency.Len())
	for el := s.recency.Front(); el != nil; el = el.Next() {
		f := el.Value.(*distinctRef).file
		if files[f] {
			t.Fatalf("file %d appears twice on the recency list", f)
		}
		files[f] = true
		if s.nodes[f] != el {
			t.Fatalf("nodes[%d] does not point at its recency element", f)
		}
	}
	if len(s.nodes) != len(files) {
		t.Fatalf("nodes holds %d files, the recency list %d", len(s.nodes), len(files))
	}
}

// TestCollectPairsMatchesSeenMap drives random Open/Close/PointRef/Skip/
// Fork/MergeChild sequences over a small process tree in every distance
// mode and checks every open's pairs against the seen-map form.
func TestCollectPairsMatchesSeenMap(t *testing.T) {
	type node struct {
		s      *Stream
		parent *node
	}
	for _, mode := range []Mode{Lifetime, Sequence, Temporal} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			window := 1 + rng.Intn(6)
			live := []*node{{s: NewStreamMode(window, mode)}}
			now := 0.0
			for step := 0; step < 1500; step++ {
				i := rng.Intn(len(live))
				n := live[i]
				s := n.s
				now += rng.Float64()
				s.SetNow(now)
				f := simfs.FileID(1 + rng.Intn(14))
				switch op := rng.Intn(20); {
				case op < 8:
					want := s.collectPairsSeen(f, s.opens+1)
					if got := s.Open(f); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d step %d: Open(%d) = %v, seen-map form %v", mode, seed, step, f, got, want)
					}
				case op < 13:
					s.Close(f)
				case op < 15:
					want := s.collectPairsSeen(f, s.opens+1)
					if got := s.PointRef(f); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d step %d: PointRef(%d) = %v, seen-map form %v", mode, seed, step, f, got, want)
					}
				case op < 17:
					s.Skip()
				case op < 18:
					if len(live) < 6 {
						live = append(live, &node{s: s.Fork(), parent: n})
					}
				default:
					if n.parent != nil {
						n.parent.s.MergeChild(s)
						live = append(live[:i], live[i+1:]...)
						checkDistinct(t, n.parent.s)
					}
				}
				checkDistinct(t, s)
			}
		}
	}
}
