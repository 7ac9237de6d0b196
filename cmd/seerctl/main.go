// Command seerctl inspects SEER's state after replaying a trace: the
// inferred project clusters, the hoard inclusion plan, hoard contents at
// a budget, per-file neighbor tables, and observer statistics.
//
// Usage:
//
//	seerctl -trace f.trace clusters
//	seerctl -trace f.trace plan | head -30
//	seerctl -trace f.trace hoard -budget 50
//	seerctl -trace f.trace neighbors /home/u/proj00/src00.c
//	seerctl -trace f.trace stats
//
// The metrics subcommand instead talks to a running daemon: it scrapes
// /metrics and pretty-prints the paper-§5 quantities (hoard misses,
// miss-free hoard size, dirty replicas) as a one-screen table:
//
//	seerctl -addr http://127.0.0.1:7077 metrics
//
// The config subcommand fetches /debug/config from a running daemon and
// prints the active runtime settings plus the last hot-reload outcome;
// -config FILE replays a trace under the same runtime file a seerd
// watches, so offline answers use the daemon's exact knobs.
//
// The observability subcommands complete the debugging loop: `trace ID`
// scrapes /debug/traces from every daemon in a comma-separated -addr
// list and stitches one request's spans into a single tree, `slo`
// renders the burn-rate monitors (seer_slo_burn_rate from /metrics,
// the breach state from the slo probe on /healthz), and `flight
// [REASON]` asks the daemon to capture a postmortem flight bundle:
//
//	seerctl -addr http://host:7077,http://master:7078 trace 81d2aa309be021c7
//	seerctl -addr http://host:7077 slo
//	seerctl -addr http://host:7077 flight "latency spike"
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (text or binary, auto-detected)")
	controlPath := flag.String("control", "", "optional control file")
	budgetMB := flag.Int64("budget", 50, "hoard budget in MB (hoard subcommand)")
	configPath := flag.String("config", "",
		"optional runtime config file (the same format seerd watches): "+
			"`param Name Value` lines set Params, `budget` sets the hoard budget")
	addr := flag.String("addr", "http://127.0.0.1:7077",
		"base URL of a running seerd or rumord (metrics and config subcommands); "+
			"the trace subcommand accepts a comma-separated list and stitches spans across daemons")
	flag.Parse()
	if flag.NArg() >= 1 && flag.Arg(0) == "metrics" {
		if err := printMetrics(os.Stdout, *addr); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "config" {
		if err := printConfig(os.Stdout, *addr); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "shards" {
		if err := printShards(os.Stdout, *addr); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "trace" {
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("trace needs a hex trace id: seerctl -addr URL[,URL...] trace ID"))
		}
		if err := printTrace(os.Stdout, *addr, flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "slo" {
		if err := printSLO(os.Stdout, *addr); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "flight" {
		reason := "on-demand"
		if flag.NArg() >= 2 {
			reason = flag.Arg(1)
		}
		if err := captureFlight(os.Stdout, *addr, reason); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "drain" {
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("drain needs a shard index: seerctl -addr URL drain N"))
		}
		if err := drainShard(os.Stdout, *addr, flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *tracePath == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr,
			"usage: seerctl -trace FILE [-control FILE] [-config FILE] [-budget MB] clusters|plan|hoard|neighbors PATH|investigate DIR|advise|check|stats\n"+
				"       seerctl [-addr URL] metrics|config|shards|drain N|slo|flight [REASON]\n"+
				"       seerctl [-addr URL,URL...] trace ID")
		os.Exit(2)
	}

	params := config.Defaults()
	if *configPath != "" {
		// Replay against the same runtime file the daemon uses, so an
		// offline `seerctl hoard` answers with the daemon's exact knobs.
		rt := config.DefaultRuntime()
		f, err := os.Open(*configPath)
		if err != nil {
			fatal(err)
		}
		err = config.ApplyFile(&rt, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := rt.Validate(); err != nil {
			fatal(err)
		}
		params = rt.Params
		if rt.Daemon.HoardBudgetMB > 0 && !flagSet("budget") {
			*budgetMB = rt.Daemon.HoardBudgetMB
		}
	}
	var ctl *config.Control
	if *controlPath != "" {
		f, err := os.Open(*controlPath)
		if err != nil {
			fatal(err)
		}
		ctl, err = config.ParseControl(f, &params)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	corr := core.New(core.Options{Params: &params, Control: ctl, Seed: 1})

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadAuto(f)
	if err != nil {
		fatal(err)
	}
	for _, ev := range events {
		corr.Feed(ev)
	}

	switch flag.Arg(0) {
	case "clusters":
		res := corr.Clusters()
		for _, cl := range res.Clusters {
			if len(cl.Members) < 2 {
				continue
			}
			fmt.Printf("cluster %d (%d files):\n", cl.ID, len(cl.Members))
			for _, m := range cl.Members {
				if file := corr.FS().Get(m); file != nil {
					fmt.Printf("  %s\n", file.Path)
				}
			}
		}
	case "plan":
		for i, e := range corr.Plan().Entries {
			fmt.Printf("%5d %8s %10d %12d %s\n",
				i, e.Reason, e.File.Size, e.Cum, e.File.Path)
		}
	case "hoard":
		contents := corr.Fill(*budgetMB << 20)
		fmt.Printf("# %d files, %d of %d bytes\n",
			contents.Len(), contents.UsedBytes(), contents.Budget())
		for _, id := range contents.IDs() {
			if file := corr.FS().Get(id); file != nil {
				fmt.Println(file.Path)
			}
		}
	case "neighbors":
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("neighbors needs a path argument"))
		}
		file := corr.FS().Lookup(flag.Arg(1))
		if file == nil {
			fatal(fmt.Errorf("unknown file %q", flag.Arg(1)))
		}
		for _, nb := range corr.Table().NeighborEntries(file.ID) {
			nf := corr.FS().Get(nb.ID)
			if nf == nil {
				continue
			}
			fmt.Printf("%8.2f %6d %s\n", nb.Distance(), nb.Count(), nf.Path)
		}
	case "investigate":
		// Run the external investigators over a real directory tree
		// (paper §3.2): C #include scanning plus makefile rules. The
		// relations are registered and echoed so their clustering
		// effect can be inspected with a follow-up `clusters`.
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("investigate needs a directory argument"))
		}
		rels, err := investigateDir(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		corr.AddRelations(rels)
		fmt.Printf("# %d relations registered\n", len(rels))
		for _, rel := range rels {
			fmt.Printf("%g %s\n", rel.Strength, strings.Join(rel.Files, " "))
		}
	case "advise":
		// Directory-reorganization advice (paper §7): files living away
		// from their semantic cluster's home directory.
		for _, a := range corr.AdviseReorg(4, 0.6) {
			fmt.Printf("move %s → %s/ (%d of %d cluster mates live there)\n",
				a.Path, a.TargetDir, a.Mates, a.ClusterSize)
		}
	case "check":
		problems := corr.CheckInvariants()
		if len(problems) == 0 {
			fmt.Println("ok: all invariants hold")
			break
		}
		for _, pr := range problems {
			fmt.Println("PROBLEM:", pr)
		}
		os.Exit(1)
	case "stats":
		st := corr.Observer().Stats()
		fmt.Printf("events            %d\n", st.Events)
		fmt.Printf("references        %d\n", st.References)
		fmt.Printf("known files       %d\n", corr.FS().Len())
		fmt.Printf("tracked files     %d\n", corr.Table().Len())
		fmt.Printf("frequent files    %d\n", len(corr.Observer().FrequentFiles()))
		fmt.Printf("dropped superuser %d\n", st.DroppedSuperuser)
		fmt.Printf("dropped temp      %d\n", st.DroppedTemp)
		fmt.Printf("dropped failed    %d\n", st.DroppedFailed)
		fmt.Printf("dropped mngless   %d\n", st.DroppedMeaningles)
		fmt.Printf("dropped getcwd    %d\n", st.DroppedGetcwd)
		fmt.Printf("dropped excluded  %d\n", st.DroppedExcluded)
		fmt.Printf("stats folded      %d\n", st.StatsFolded)
	default:
		fatal(fmt.Errorf("unknown subcommand %q", flag.Arg(0)))
	}
}

// investigateDir walks a real directory, feeding C sources to the
// #include investigator and makefiles to the makefile investigator.
func investigateDir(dir string) ([]investigate.Relation, error) {
	sources := make(map[string][]byte)
	var rels []investigate.Relation
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || info.Size() > 1<<20 {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		base := filepath.Base(path)
		switch {
		case strings.HasSuffix(base, ".c") || strings.HasSuffix(base, ".cc") ||
			strings.HasSuffix(base, ".h") || strings.HasSuffix(base, ".cpp"):
			content, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources[abs] = content
		case base == "Makefile" || base == "makefile" || base == "GNUmakefile":
			content, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rels = append(rels, investigate.MakefileRelations(abs, content, 3)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exists := func(p string) bool {
		_, statErr := os.Stat(p)
		return statErr == nil
	}
	rels = append(rels, investigate.CRelations(sources, nil, 3, exists)...)
	return rels, nil
}

// flagSet reports whether the named flag was given on the command line
// (so an explicit -budget beats the config file's value).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "seerctl: %v\n", err)
	os.Exit(1)
}

// call sends one request to a running daemon (base is its URL, path
// the endpoint with any query) and returns the response body. A status
// other than 200 is an error naming the request, the status and the
// start of the body; the body is returned with it.
func call(method, base, path string, timeout time.Duration) ([]byte, error) {
	u := strings.TrimRight(base, "/") + path
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: timeout}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, u, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := body
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return body, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status,
			strings.TrimSpace(string(msg)))
	}
	return body, nil
}
