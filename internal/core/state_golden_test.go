//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/fmg/seer/internal/workload"
)

// TestFeedStateGolden pins the state the write path leaves behind.
// Generator traces (profiles A, D and F, two seeds each) are fed through
// New, and a SHA-256 digest covers the rendered plan, every neighbor
// list in list order with each entry's count and distance bits, and the
// observer's accounting. The digests come from the code before the
// write path's per-event work was cut, so any change that moves an
// event, a neighbor entry, an RNG draw or a plan byte fails here.
//
// They hash float bits of exp/log1p results, which Go may compute
// differently elsewhere (math.Exp has per-architecture assembly, and
// arm64 fuses multiply-adds), so they are amd64 values and the file
// builds on amd64 only.
func TestFeedStateGolden(t *testing.T) {
	cases := []struct {
		profile string
		days    int
		seed    int64
		want    string
	}{
		{"A", 15, 1, "2982e96a709ef532e4db21ecf82bef5f4c6bef4bd6e5eff224d1eff0ef4fe222"},
		{"A", 15, 2, "f3350e02f8a560f58a4ecd4870255940f10c41acd1bc4e0e25479502f8946331"},
		{"D", 12, 1, "e20a6f382f30b21ee352d70e05c62e4e9c55892aae1fcd45238065ce06d32297"},
		{"D", 12, 2, "d9493e8cfc02a4f59b5563b78f97a15282e8c1dc710fdc609ead599eb5062c5b"},
		{"F", 8, 1, "a93487c99c2b4669bfb1ed1666ab00af16c5b630d767dba9e0cbc34bce280b20"},
		{"F", 8, 2, "8cd04453929021bb832a8905c4fe15e7fabd0391b27961e96e99166ed677cd4e"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed%d", c.profile, c.seed), func(t *testing.T) {
			if got := feedStateDigest(t, c.profile, c.days, c.seed); got != c.want {
				t.Errorf("state digest = %s, want %s", got, c.want)
			}
		})
	}
}

// feedStateDigest feeds one generated trace through a fresh correlator
// and digests the plan, the neighbor tables and the observer's stats.
func feedStateDigest(t *testing.T, profile string, days int, seed int64) string {
	t.Helper()
	prof, ok := workload.ProfileByName(profile)
	if !ok {
		t.Fatalf("no profile %s", profile)
	}
	gen := workload.NewGenerator(prof.Light(days), seed)
	c := New(Options{Seed: seed, DirSize: gen.DirSize})
	for _, ev := range gen.Generate().Events {
		c.Feed(ev)
	}
	h := sha256.New()
	for i, e := range c.Plan().Entries {
		fmt.Fprintf(h, "%5d %8s %10d %12d %s\n", i, e.Reason, e.File.Size, e.Cum, e.File.Path)
	}
	tbl := c.Table()
	fmt.Fprintf(h, "opens %d files %d\n", tbl.Opens(), tbl.Len())
	for _, id := range tbl.Files() {
		fmt.Fprintf(h, "%d: %v\n", id, tbl.Neighbors(id))
		for _, nb := range tbl.NeighborEntries(id) {
			fmt.Fprintf(h, "%d %d %d %016x\n", id, nb.ID, nb.Count(), math.Float64bits(nb.Distance()))
		}
	}
	fmt.Fprintf(h, "%+v\n", c.Observer().Stats())
	return hex.EncodeToString(h.Sum(nil))
}
