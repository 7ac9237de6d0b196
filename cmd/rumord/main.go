// Command rumord is the CheapRumor replication master: the server half
// of the networked substrate SEER delegates data transport to (paper
// §2, §5). It holds the authoritative version table and serves the
// wire-framed reconciliation protocol that replic.RemoteRumor speaks —
// create/update/version/fetch/push/reconcile under /rumor/.
//
// Run a master:
//
//	rumord -listen :7078
//
// then point laptops at it:
//
//	rum := replic.NewRemoteRumor("http://master:7078/rumor", nil)
//
// A seerd started with -rumor mounts the same master on its own mux,
// so small deployments need only one daemon; rumord exists for running
// the substrate on a different host (or behind different provisioning)
// than the observer.
//
// rumord runs on seerd's process scaffold (internal/daemon): the same
// knob table for -log-level/-log-format/-admit-* flags and the watched
// -config file (log shape and admission limits retune live; listen
// addresses are structural and reject the reload), supervised
// listeners, and one health document at /healthz and /readyz, which
// degrades while /rumor/ admission control is shedding (429 +
// Retry-After). /metrics, /debug/traces, /debug/config and, with
// -flight-dir, /debug/flight match seerd's; -debug-addr adds a pprof
// listener.
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/obs"
)

func main() {
	rt := config.DefaultRuntime()
	rt.Daemon.Listen = ":7078" // rumord's historical default
	opts := daemon.ParseFlags("rumord", obs.NewLogger(nil), rt, config.ForRumord)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	newDaemon(opts).Serve(ctx)
}

// newDaemon builds rumord: the shared scaffold with the replication
// master mounted on its main listener.
func newDaemon(opts daemon.Options) *daemon.Daemon {
	d := daemon.New(opts)
	mux := d.Mux()
	d.MountRumor(mux)
	d.AddListeners(mux, d.DebugMux())
	return d
}
