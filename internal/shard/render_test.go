package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fmg/seer/internal/hoard"
)

// appendPlanRow must write what fmt's "%5d %8s %10d %12d %s\n" writes:
// right-aligned, space-padded, never truncated, sign included.
func TestAppendPlanRowMatchesFmt(t *testing.T) {
	type row struct {
		rank      int
		reason    hoard.Reason
		size, cum int64
		path      string
	}
	rows := []row{
		{0, hoard.ReasonAlways, 0, 0, "/"},
		{7, hoard.ReasonCluster, 14284, 1 << 20, "/home/u/proj/main.c"},
		{99999, hoard.ReasonRecency, 9999999999, 999999999999, "/a b/c"},
		{123456, hoard.ReasonCluster, 12345678901, 1234567890123, "/wide"},
		{-1, hoard.ReasonAlways, -5, -123456789012, "/neg"},
		{-12345, hoard.Reason(7), math.MinInt64, math.MaxInt64, "/reason"},
		{3, hoard.Reason(255), 1, 2, ""},
		{42, hoard.ReasonRecency, 0, 0, "/home/u/café/notes.txt"},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		rows = append(rows, row{
			rank:   rng.Intn(1<<uint(rng.Intn(24))) - 100,
			reason: hoard.Reason(rng.Intn(5)),
			size:   rng.Int63n(1<<uint(1+rng.Intn(62))) - 1000,
			cum:    rng.Int63() >> uint(rng.Intn(63)),
			path:   fmt.Sprintf("/p/%d", rng.Intn(1000)),
		})
	}
	var got []byte
	for _, r := range rows {
		want := fmt.Sprintf("%5d %8s %10d %12d %s\n", r.rank, r.reason, r.size, r.cum, r.path)
		got = appendPlanRow(got[:0], r.rank, r.reason.String(), r.size, r.cum, r.path)
		if string(got) != want {
			t.Fatalf("row %+v:\n got %q\nwant %q", r, got, want)
		}
	}
}
