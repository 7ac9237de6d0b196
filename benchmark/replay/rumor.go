package replay

import (
	"fmt"

	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/simfs"
)

// Replicate registers file ids 1..n on the rumor master at url in one
// reconciliation round trip, so hoard fills find every file replicated.
func Replicate(url string, n int) error {
	r := replic.NewRemoteRumor(url, nil)
	r.SetConnected(false)
	for id := 1; id <= n; id++ {
		r.WriteLocal(simfs.FileID(id))
	}
	rep := r.SetConnected(true)
	if !r.Connected() || rep.Propagated != n {
		return fmt.Errorf("rumor master at %s took %d of %d files", url, rep.Propagated, n)
	}
	return nil
}
