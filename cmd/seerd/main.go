// Command seerd is the SEER daemon for real systems: it maintains the
// correlator state of one or more users and serves hoarding decisions
// over HTTP.
//
// Capture activity with:
//
//	strace -f -tt -e trace=open,openat,creat,close,stat,lstat,access,\
//	execve,fork,vfork,clone,unlink,unlinkat,rename,renameat,mkdir,\
//	chdir,getdents64,exit_group -o /tmp/seer.strace -p <shell pid>
//
// then run:
//
//	seerd -strace /tmp/seer.strace -listen :7077 -budget 512 -shard-dir /var/lib/seer
//
// Every seerd is a set of user shards behind a consistent-hash gateway
// (-shards, default 1). With one shard, the strace input (a file, or
// stdin) feeds it: a cold bootstrap over the existing trace, then, with
// -follow, a tailer over appended lines. With more, each user's events
// arrive through POST /events?user=NAME.
//
// Endpoints: /plan (inclusion order), /hoard (chosen files at the
// budget), /clusters, /miss?path=... (POST; record a hoard
// miss and force the file's project into future plans, §4.4), each
// taking ?user= for routing (optional with one shard); /shards and
// POST /shards/drain?shard=N; /healthz + /readyz (JSON health detail);
// /metrics, /debug/traces, /debug/config. Without -listen,
// seerd prints the hoard list once and exits. With -debug-addr, a
// second listener serves net/http/pprof profiles, /shards, and the same
// health and observability endpoints. With -rumor, the CheapRumor
// replication master (the same wire protocol cmd/rumord serves) is
// mounted under /rumor/, so laptops can reconcile against the seerd
// host directly via replic.RemoteRumor.
//
// Supervision: every stage — each shard's feeder and checkpointer, the
// strace tailer, the HTTP listeners, the config watcher — runs under a
// supervisor that captures panics and restarts the stage with
// exponential backoff and jitter; a stage that keeps failing trips a
// circuit breaker and flips health (healthy → degraded → unavailable)
// instead of crash-looping. Ingestion reaches a shard's feeder through
// a bounded queue (block briefly, then shed-oldest with a drop
// counter), so a wedged clustering can never stall the tail loop, and
// /plan and /hoard fall back to the last published plan (X-Seer-Stale:
// true) when a fresh one cannot be built before the deadline.
//
// Durability: with -shard-dir, each shard restores shard-NNN.db at
// startup through a recovery ladder (snapshot, then its .bak rotation,
// then a fresh database — corruption is logged, never fatal),
// checkpoints atomically with fsync while serving, and writes a final
// checkpoint when it drains at exit (SIGINT/SIGTERM, or the end of a
// one-shot run).
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/daemon"
)

func main() {
	// Every tunable is one knob in internal/config's declarative table;
	// ParseFlags turns the seerd subset into flags, and the same names
	// work as `key value` lines in the -config file.
	opts := daemon.ParseFlags("seerd", logger, config.DefaultRuntime(), config.ForSeerd)
	os.Exit(run(pipelineConfig{Options: opts}, os.Stdout))
}

// run opens the shards, bootstraps a single slot from the strace input,
// then either prints its hoard once to stdout (no -listen) or serves
// until a signal. Every path ends in Manager.Close, whose drains write each
// shard's final checkpoint; a failed one makes the exit status 1, so a
// supervisor or script can tell that learned state was lost. It returns
// the exit status.
func run(cfg pipelineConfig, stdout io.Writer) int {
	d := cfg.Runtime.Daemon
	if d.Listen == "" && d.Shards > 1 {
		fmt.Fprintln(os.Stderr, "seerd: -shards above 1 requires -listen (events arrive through POST /events)")
		return 2
	}
	if d.ShardDir != "" {
		if err := os.MkdirAll(d.ShardDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "seerd: shard-dir: %v\n", err)
			return 1
		}
	}
	// Only a single slot reads the strace input; with more, events
	// arrive per user over HTTP and stdin is never touched.
	var in *os.File
	if d.Shards == 1 {
		in = os.Stdin
		if d.Strace != "-" {
			f, err := os.Open(d.Strace)
			if err != nil {
				logger.Error("cannot open strace file", "path", d.Strace, "err", err)
				return 1
			}
			defer f.Close()
			in = f
		}
	} else if d.Strace != "-" {
		logger.Warn("-strace is ignored with more than one shard; POST /events feeds them",
			"path", d.Strace)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := newPipeline(cfg)
	code := serve(ctx, p, in, stdout)
	if err := p.close(); err != nil {
		logger.Error("final checkpoint failed", "err", err)
		return 1
	}
	return code
}

// serve is run between opening the shards and closing them: bootstrap
// from in (nil with more than one shard), then print the hoard once to
// stdout or serve until ctx ends. It returns the exit status.
func serve(ctx context.Context, p *pipeline, in *os.File, stdout io.Writer) int {
	d := p.Store.Get().Daemon
	if in != nil {
		// A signal during a large read stops it promptly; whatever was
		// learned up to that point is still checkpointed by the drain.
		err := p.bootstrap(ctx, in)
		switch {
		case errors.Is(err, context.Canceled):
			logger.Warn("interrupted during bootstrap; exiting", "events", p.mgr.Shard(0).Events())
			return 0
		case err != nil:
			// A bad input stream or a failed feeder costs the unread tail,
			// not the accumulated database: keep going with what was
			// learned.
			logger.Warn("bootstrap stopped early; continuing",
				"err", err, "events", p.mgr.Shard(0).Events())
		}
	}

	if d.Listen == "" {
		body, _, err := p.mgr.Shard(0).Hoard(context.Background())
		if err != nil {
			logger.Error("hoard unavailable", "err", err)
			return 1
		}
		stdout.Write(body)
		return 0
	}
	p.Serve(ctx, "shards", d.Shards, "events", p.mgr.Shard(0).Events(), "shard_dir", d.ShardDir)
	return 0
}
