// Command seerbench is seerd's benchmark. It builds cmd/seerd and
// cmd/rumord, drives them over loopback HTTP with calibrated synthetic
// SEER users, checks what they answer, and prints every metric with its
// unit; the last line of standard output is one JSON object.
//
//	go run ./seerbench -root .. -workload plan-read -seed 1
//	go run ./seerbench -root .. -workload reconnect -seed 1 -trace 1
//	go run ./seerbench -root .. -runs 5
//
// Run it from the benchmark module (benchmark/), or through
// benchmark/run.sh from the repository root. -trace 1 adds an
// in-process replay of the same operations that reports per-layer
// metrics instead of the end-to-end ones. -runs N repeats each workload
// on seeds seed..seed+N-1 and prints each metric's median and
// interquartile range, one row per workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/fmg/seer/benchmark/e2e"
	"github.com/fmg/seer/benchmark/ops"
	"github.com/fmg/seer/benchmark/replay"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+strings.Join(ops.Names, ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed the users, schedules and picks are made from")
		seconds      = flag.Float64("seconds", 20, "length of the measured phase")
		traced       = flag.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
		runs         = flag.Int("runs", 1, "repeat each workload on this many consecutive seeds and print medians and IQRs")
		root         = flag.String("root", ".", "repository root holding cmd/seerd and cmd/rumord; binaries and trace.json go to its .bench_build/")
	)
	flag.Parse()
	// The pre-encoded inputs are most of the heap and live for the whole
	// run; a tight GC target keeps the default doubling off them.
	debug.SetGCPercent(25)
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	names := ops.Names
	if *workloadName != "all" {
		names = []string{*workloadName}
		if !slices.Contains(ops.Names, *workloadName) {
			fatalf("unknown workload %q (want one of %s, or all)", *workloadName, strings.Join(ops.Names, ", "))
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*root, ".bench_build")
	bins, err := build(ctx, *root, filepath.Join(dir, "bin"))
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		bins:    bins,
		measure: time.Duration(*seconds * float64(time.Second)),
		scale:   ops.Full,
		trace:   *traced == 1,
		traceTo: filepath.Join(dir, "trace.json"),
		log:     os.Stderr,
	}
	if *runs <= 1 && len(names) == 1 {
		rep, err := runOnce(ctx, cfg, names[0], *seed)
		if err != nil {
			fatalf("%s: %v", names[0], err)
		}
		rep.print(os.Stdout)
		return
	}
	var reps [][]*report
	for _, n := range names {
		var row []*report
		for r := 0; r < max(*runs, 1); r++ {
			rep, err := runOnce(ctx, cfg, n, *seed+int64(r))
			if err != nil {
				fatalf("%s seed %d: %v", n, *seed+int64(r), err)
			}
			fmt.Fprintf(os.Stderr, "seerbench: %s seed %d: correct=%v attempted=%d failed=%d\n",
				n, *seed+int64(r), rep.Correct, rep.Attempted, rep.Failed)
			row = append(row, rep)
		}
		reps = append(reps, row)
	}
	summarize(os.Stdout, reps)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seerbench: "+format+"\n", args...)
	os.Exit(1)
}

// binaries are the built daemons.
type binaries struct{ seerd, rumord string }

// build compiles the daemons from the repository at root into dir.
func build(ctx context.Context, root, dir string) (binaries, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return binaries{}, err
	}
	b := binaries{seerd: filepath.Join(abs, "seerd"), rumord: filepath.Join(abs, "rumord")}
	for _, t := range []struct{ pkg, bin string }{{"./cmd/seerd", b.seerd}, {"./cmd/rumord", b.rumord}} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", t.bin, t.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("go build %s: %v\n%s", t.pkg, err, out)
		}
	}
	return b, nil
}

type config struct {
	bins    binaries
	measure time.Duration
	scale   ops.Scale
	trace   bool
	traceTo string
	// log, when set, receives each run's per-request breakdown.
	log io.Writer
}

// report is one run's verdict and metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	workload  string
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs workload name for seed end to end and, when traced,
// replays it in-process.
func runOnce(ctx context.Context, cfg config, name string, seed int64) (*report, error) {
	w, err := ops.Build(name, seed, cfg.measure.Seconds(), cfg.scale)
	if err != nil {
		return nil, err
	}
	res, err := e2e.Run(ctx, e2e.Config{
		Seerd:     cfg.bins.seerd,
		Rumord:    cfg.bins.rumord,
		Measure:   cfg.measure,
		Replicate: replay.Replicate,
	}, w)
	if err != nil {
		return nil, err
	}
	if cfg.log != nil {
		for _, k := range []ops.Kind{ops.Post, ops.Plan, ops.Hoard, ops.Miss} {
			if l := res.Latency[k]; len(l) > 0 {
				fmt.Fprintf(cfg.log, "seerbench: %s %s: n=%d p50=%.3f ms p95=%.3f ms\n",
					name, k, len(l), e2e.Quantile(l, 0.5), e2e.Quantile(l, 0.95))
			}
		}
		for _, f := range res.Failures {
			fmt.Fprintf(cfg.log, "seerbench: %s: request failed: %s\n", name, f)
		}
		fmt.Fprintf(cfg.log, "seerbench: %s: %d set-ups, measured %v, %d events fed, lateness p99 %.2f ms, miss-free %.0f B\n",
			name, len(res.Setup), res.Elapsed.Round(time.Millisecond), res.Events, e2e.Quantile(res.Lateness, 0.99), res.MissFree)
	}
	rep := &report{Attempted: res.Attempted, Failed: res.Failed, workload: name, problems: res.Problems}
	rep.check(w, res)
	diff, err := replay.Check(ctx, w, res)
	if err != nil {
		return nil, err
	}
	rep.problems = append(rep.problems, diff...)
	if cfg.trace {
		layers, problems, err := traced(ctx, cfg, w, res)
		if err != nil {
			return nil, err
		}
		rep.problems = append(rep.problems, problems...)
		rep.Metrics = make(map[string]metric)
		for n, m := range layers {
			rep.Metrics[n] = metric(m)
		}
	} else {
		rep.Metrics = endToEnd(w, res)
	}
	rep.Correct = len(rep.problems) == 0
	return rep, nil
}

// traced replays w in-process after its end-to-end run res.
func traced(ctx context.Context, cfg config, w *ops.Workload, res *e2e.Result) (map[string]replay.Metric, []string, error) {
	tc := replay.TraceConfig{Budget: cfg.measure, Out: cfg.traceTo}
	if w.Rumor {
		url, stop, err := e2e.StartRumord(ctx, cfg.bins.rumord)
		if err != nil {
			return nil, nil, err
		}
		defer stop()
		if err := replay.Replicate(url, w.FileIDs); err != nil {
			return nil, nil, err
		}
		tc.RumorURL = url
	}
	return replay.Trace(ctx, tc, w, res)
}

// print writes every metric by name and unit, the failed checks, and
// the JSON verdict as the last line.
func (r *report) print(f io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "check failed: %s\n", p)
	}
	b, _ := json.Marshal(r) // plain structs of numbers and strings
	fmt.Fprintf(f, "%s\n", b)
}
