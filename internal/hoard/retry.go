package hoard

import (
	"context"
	"errors"
	"time"

	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/supervise"
)

// RetryPolicy configures fetch retries during hoard synchronization.
// Mobile links are flaky by nature (paper §1: low-bandwidth, unreliable
// networks), so a failed fetch is retried with exponential backoff and
// jitter before the file is given up for this fill; a permanent failure
// degrades the fill rather than aborting it, and the next refill tries
// again.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per file (minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// each further attempt (supervise.Backoff).
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized away (0..1): the
	// actual sleep is delay * (1 - Jitter*u) for uniform u, decorrelating
	// retry storms from many clients.
	Jitter float64
	// Rand drives jitter; nil uses a shared locked process-wide source.
	// A policy that truly wants deterministic backoff sets Jitter to 0.
	Rand *stats.Rand
	// Sleep is the delay function; nil means a sleep that the context
	// of DoCtx cuts short. Tests inject a stub to run instantly.
	Sleep func(time.Duration)
	// OnRetry, when non-nil, is called once per backoff (i.e. per retry
	// about to happen) with the failed attempt number and its error —
	// the hook retry counters hang off without the policy knowing about
	// metrics.
	OnRetry func(attempt int, err error)
}

// DefaultRetry is a sensible policy for interactive refills: four
// attempts spanning roughly a second and a half.
var DefaultRetry = RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   100 * time.Millisecond,
	MaxDelay:    2 * time.Second,
	Jitter:      0.5,
}

// jitterRand is the process-wide jitter source policies fall back on
// when Rand is nil. It must be locked: one policy value is shared by
// many goroutines (every gateway request, every syncing client), and it
// must exist at all — a nil Rand used to disable jitter silently, so
// the shipped DefaultRetry backed off in lockstep across all clients
// and synchronized the very retry storms Jitter is there to break up.
var jitterRand = stats.NewLockedRand(0x6a69747465720a) // "jitter"

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Rand == nil {
		p.Rand = jitterRand
	}
	return p
}

// delay returns the jittered backoff before attempt (1-based: the wait
// preceding attempt+1).
func (p RetryPolicy) delay(attempt int) time.Duration {
	var u float64
	if p.Jitter > 0 {
		u = p.Rand.Float64()
	}
	return supervise.Backoff{Initial: p.BaseDelay, Max: p.MaxDelay, Jitter: p.Jitter}.Delay(attempt, u)
}

// Do runs op, retrying transient failures with the policy's backoff:
// DoCtx without a deadline. This is the retry core behind
// FetchWithRetry, and the hook the networked substrate plugs into
// replic.RemoteRumor.Retry so its round trips (push, reconcile, batched
// fetch) back off the same way hoard fetches do.
func (p RetryPolicy) Do(op func() error) error {
	return p.DoCtx(context.Background(), op)
}

// DoCtx runs op, retrying transient failures with the policy's backoff
// until ctx ends. replic.ErrNotReplicated is permanent (a definitive
// server answer) and is returned without retry; every other error is
// assumed transient. A backoff in progress is cut short the moment ctx
// ends (client disconnect, request deadline), and no further attempt is
// made once ctx is done. It returns the last attempt's error in that
// case — callers that need to distinguish "gave up because the context
// died" check ctx.Err() themselves. A custom Sleep hook is still
// honored (tests stub it to run instantly).
func (p RetryPolicy) DoCtx(ctx context.Context, op func() error) error {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || errors.Is(err, replic.ErrNotReplicated) {
			return err
		}
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		d := p.delay(attempt)
		if p.Sleep != nil {
			p.Sleep(d)
		} else if !supervise.Sleep(ctx, d) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
}

// FetchWithRetry fetches one file, retrying transient failures per the
// policy.
func FetchWithRetry(rep replic.Replicator, id simfs.FileID, pol RetryPolicy) error {
	return pol.Do(func() error { return rep.Fetch(id) })
}

// SyncReport summarizes one retrying hoard synchronization.
type SyncReport struct {
	// Fetched counts files brought into the hoard.
	Fetched int
	// Evicted counts files dropped.
	Evicted int
	// Failed lists files whose fetch failed even after retries; they
	// remain un-hoarded and eligible for the next refill.
	Failed []simfs.FileID
}

// SyncWithRetry applies a fetch/evict diff against the substrate,
// retrying failures with backoff. A substrate that implements
// replic.BatchSyncer (the networked RemoteRumor) gets the whole diff in
// one retried round trip instead of one per file; otherwise each fetch
// is retried individually. Either way a file that stays unreachable is
// recorded and skipped — one dead file cannot abort the rest of the
// fill.
func SyncWithRetry(rep replic.Replicator, fetch, evict []simfs.FileID, pol RetryPolicy) SyncReport {
	if bs, ok := rep.(replic.BatchSyncer); ok {
		return syncBatched(bs, rep, fetch, evict, pol)
	}
	var rp SyncReport
	for _, id := range fetch {
		if err := FetchWithRetry(rep, id, pol); err != nil {
			rp.Failed = append(rp.Failed, id)
			continue
		}
		rp.Fetched++
	}
	for _, id := range evict {
		rep.Evict(id)
		rp.Evicted++
	}
	return rp
}

// syncBatched applies the diff through one retried batch round trip.
// When the batch stays unreachable past the policy, every fetch is
// failed but the evictions — local by nature — are still applied, so a
// partitioned laptop can shrink its hoard even though it cannot fill
// it.
func syncBatched(bs replic.BatchSyncer, rep replic.Replicator, fetch, evict []simfs.FileID, pol RetryPolicy) SyncReport {
	var rp SyncReport
	var failed []simfs.FileID
	err := pol.Do(func() error {
		var berr error
		failed, berr = bs.SyncBatch(fetch, evict)
		return berr
	})
	if err != nil {
		rp.Failed = append(rp.Failed, fetch...)
		for _, id := range evict {
			rep.Evict(id)
			rp.Evicted++
		}
		return rp
	}
	rp.Failed = failed
	rp.Fetched = len(fetch) - len(failed)
	rp.Evicted = len(evict)
	return rp
}

// RefillSync runs one damped refill and synchronizes the diff against
// the substrate with retries. Files whose fetch ultimately failed are
// removed from the refiller's view of the hoard, so the next RefillSync
// retries them — under a transiently flaky link, repeated fills
// converge to the fault-free hoard contents.
func (r *Refiller) RefillSync(plan *Plan, rep replic.Replicator, pol RetryPolicy) SyncReport {
	fetch, evict := r.Refill(plan)
	rp := SyncWithRetry(rep, fetch, evict, pol)
	for _, id := range rp.Failed {
		delete(r.current, id)
		delete(r.fetchedAt, id)
	}
	return rp
}
