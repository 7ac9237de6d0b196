package config

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestDefaultRuntimeValidates(t *testing.T) {
	if err := DefaultRuntime().Validate(); err != nil {
		t.Fatalf("DefaultRuntime does not validate: %v", err)
	}
}

func TestRuntimeValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Runtime)
	}{
		{"queue<1", func(r *Runtime) { r.Daemon.QueueCap = 0 }},
		{"negative block", func(r *Runtime) { r.Daemon.QueueBlockMS = -1 }},
		{"negative budget", func(r *Runtime) { r.Daemon.HoardBudgetMB = -5 }},
		{"bad log level", func(r *Runtime) { r.Daemon.LogLevel = "loud" }},
		{"bad log format", func(r *Runtime) { r.Daemon.LogFormat = "xml" }},
		{"negative inflight", func(r *Runtime) { r.Admit.PlanMaxInFlight = -1 }},
		{"queue pct > 100", func(r *Runtime) { r.Admit.MaxQueuePct = 101 }},
		{"negative retry", func(r *Runtime) { r.Admit.RetryAfterSec = -1 }},
		{"bad params", func(r *Runtime) { r.Params.KNear = 1; r.Params.KFar = 2 }},
	}
	for _, tc := range cases {
		r := DefaultRuntime()
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestApplyFileOverridesAndParams(t *testing.T) {
	r := DefaultRuntime()
	src := `
# comment, then a blank line

queue 4096
queue-block-ms 50
budget 128
log-level debug
admit-plan-inflight 7
admit-queue-pct 80
param KNear 5
param SkipUnfittingClusters false
`
	if err := ApplyFile(&r, strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if r.Daemon.QueueCap != 4096 || r.Daemon.QueueBlockMS != 50 ||
		r.Daemon.HoardBudgetMB != 128 || r.Daemon.LogLevel != "debug" {
		t.Errorf("daemon fields not applied: %+v", r.Daemon)
	}
	if r.Admit.PlanMaxInFlight != 7 || r.Admit.MaxQueuePct != 80 {
		t.Errorf("admit fields not applied: %+v", r.Admit)
	}
	if r.Params.KNear != 5 || r.Params.SkipUnfittingClusters {
		t.Errorf("params not applied: KNear=%d Skip=%v", r.Params.KNear, r.Params.SkipUnfittingClusters)
	}
	// Untouched keys keep their base values.
	if r.Admit.RumorMaxInFlight != DefaultRuntime().Admit.RumorMaxInFlight {
		t.Errorf("untouched key changed: %d", r.Admit.RumorMaxInFlight)
	}
}

func TestApplyFileRejectsUnknownAndMalformed(t *testing.T) {
	for _, src := range []string{
		"no-such-key 1\n",
		"queue\n",
		"queue 1 2\n",
		"queue notanumber\n",
		"param NoSuchParam 3\n",
		"param KNear\n",
		// Retired knobs fail loudly rather than silently starting fresh.
		"db seer.db\n",
		"admit-miss-inflight 4\n",
	} {
		r := DefaultRuntime()
		if err := ApplyFile(&r, strings.NewReader(src)); err == nil {
			t.Errorf("ApplyFile accepted %q", src)
		}
	}
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	r := DefaultRuntime()
	fs := flag.NewFlagSet("seerd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs, &r, ForSeerd)
	err := fs.Parse([]string{
		"-queue", "2048", "-budget", "64", "-log-level", "warn",
		"-follow", "-rumor", "-admit-plan-inflight", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Daemon.QueueCap != 2048 || r.Daemon.HoardBudgetMB != 64 ||
		r.Daemon.LogLevel != "warn" || !r.Daemon.Follow || !r.Daemon.Rumor ||
		r.Admit.PlanMaxInFlight != 3 {
		t.Errorf("flags not applied: %+v %+v", r.Daemon, r.Admit)
	}
}

// Retired flags are refused, never silently ignored: a daemon pointed
// at its old snapshot (-db) must not start from an empty database, and
// a knob that became a constant must fail loudly rather than pretend
// to take effect. A config file line naming one is an unknown key.
func TestRetiredSeerdFlagsRefused(t *testing.T) {
	retired := map[string]string{
		"db": "seer.db", "admit-miss-inflight": "4",
		"slo-fast-window-sec": "60", "slo-slow-window-sec": "600", "slo-burn-threshold": "2",
		"flight-min-interval-sec": "5", "gateway-retries": "2", "gateway-retry-base-ms": "10",
		"drain-timeout-ms": "1000",
	}
	for name, value := range retired {
		r := DefaultRuntime()
		fs := flag.NewFlagSet("seerd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterFlags(fs, &r, ForSeerd)
		if err := fs.Parse([]string{"-" + name, value}); err == nil {
			t.Errorf("seerd accepted retired flag -%s", name)
		}
		err := ApplyFile(&r, strings.NewReader(name+" "+value+"\n"))
		if err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ApplyFile(%s) = %v, want an unknown key error", name, err)
		}
	}
}

func TestRumordFlagParity(t *testing.T) {
	// The PR-5 logging flags must exist on rumord via the shared knob
	// table, alongside its admission knobs.
	r := DefaultRuntime()
	fs := flag.NewFlagSet("rumord", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs, &r, ForRumord)
	for _, name := range []string{"listen", "debug-addr", "log-level", "log-format",
		"admit-rumor-inflight", "admit-retry-after"} {
		if fs.Lookup(name) == nil {
			t.Errorf("rumord flag set lacks -%s", name)
		}
	}
	if fs.Lookup("strace") != nil || fs.Lookup("shard-dir") != nil {
		t.Error("rumord flag set has seerd-only knobs")
	}
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if r.Daemon.LogLevel != "debug" || r.Daemon.LogFormat != "json" {
		t.Errorf("log flags not applied: %+v", r.Daemon)
	}
}

// Each daemon's flag list is pinned: a knob joins a daemon only if
// that daemon uses it. -config is registered by the daemons themselves.
func TestDaemonFlagLists(t *testing.T) {
	for _, c := range []struct {
		mask DaemonMask
		want string
	}{
		{ForSeerd, "admit-latency-ms admit-plan-inflight admit-queue-pct admit-retry-after " +
			"admit-rumor-inflight budget cluster-churn-threshold debug-addr flight-dir follow " +
			"gateway-timeout-ms listen log-format log-level queue queue-block-ms rumor rumor-url " +
			"shard-dir shards strace tracing"},
		{ForRumord, "admit-latency-ms admit-retry-after admit-rumor-inflight debug-addr " +
			"flight-dir listen log-format log-level tracing"},
		{ForSeerctl, "budget"},
	} {
		r := DefaultRuntime()
		fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
		RegisterFlags(fs, &r, c.mask)
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("mask %d flags:\n got %s\nwant %s", c.mask, got, c.want)
		}
	}
}

func TestStructuralDiff(t *testing.T) {
	old := DefaultRuntime()
	next := old
	if d := StructuralDiff(old, next); len(d) != 0 {
		t.Fatalf("identical configs diff: %v", d)
	}
	// Hot changes are not structural.
	next.Daemon.QueueCap = 1
	next.Admit.PlanMaxInFlight = 99
	next.Params.KNear = 6
	if d := StructuralDiff(old, next); len(d) != 0 {
		t.Fatalf("hot changes flagged structural: %v", d)
	}
	// Structural knob and ingest-frozen param changes are.
	next.Daemon.Listen = ":9999"
	next.Params.NeighborTableSize = 30
	d := StructuralDiff(old, next)
	if len(d) != 2 {
		t.Fatalf("StructuralDiff = %v, want listen + param NeighborTableSize", d)
	}
}

func TestChangedLists(t *testing.T) {
	old := DefaultRuntime()
	next := old
	next.Daemon.QueueCap = 123
	next.Params.KFar = 3
	got := Changed(old, next)
	want := map[string]bool{"queue": true, "param KFar": true}
	if len(got) != len(want) {
		t.Fatalf("Changed = %v", got)
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("unexpected change %q", name)
		}
	}
}

func TestDescribeCoversEveryKnobAndParam(t *testing.T) {
	r := DefaultRuntime()
	kv := Describe(r)
	if len(kv) != len(knobs)+len(params) {
		t.Fatalf("Describe entries = %d, want %d", len(kv), len(knobs)+len(params))
	}
	for _, e := range kv {
		if e.Key == "" {
			t.Error("empty key in Describe")
		}
	}
}

// Every field of Params is named by exactly one row: a param row of
// the same name, or the cluster-churn-threshold knob for
// ClusterChurnPct. Every row renders a value that it accepts back.
func TestParamTableCoversEveryField(t *testing.T) {
	rows := map[string]int{}
	for _, p := range params {
		rows[p.name]++
	}
	if knobByName("cluster-churn-threshold") == nil {
		t.Fatal("cluster-churn-threshold knob missing")
	}
	rows["ClusterChurnPct"]++
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if rows[name] != 1 {
			t.Errorf("Params.%s is named by %d rows, want 1", name, rows[name])
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("row %q names no Params field", name)
	}

	// Each row reads and sets its own field: move the named field off
	// its default, render it through the row, and set a fresh Params
	// from the rendering; the two must match everywhere.
	for _, row := range params {
		want := Defaults()
		f := reflect.ValueOf(&want).Elem().FieldByName(row.name)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 7)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 7)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		default:
			t.Fatalf("param %s: unhandled kind %s", row.name, f.Kind())
		}
		got := Defaults()
		if err := row.set(&got, row.get(&want)); err != nil {
			t.Errorf("param %s rejects its own rendering %q: %v", row.name, row.get(&want), err)
		}
		if got != want {
			t.Errorf("param %s does not round-trip its field: got %+v, want %+v", row.name, got, want)
		}
	}
}

func TestStoreSwapAndStatus(t *testing.T) {
	s := NewStore(DefaultRuntime())
	if s.Generation() != 1 {
		t.Fatalf("initial generation = %d", s.Generation())
	}
	r2 := DefaultRuntime()
	r2.Daemon.QueueCap = 999
	if gen := s.Swap(r2); gen != 2 {
		t.Fatalf("Swap generation = %d", gen)
	}
	if s.Get().Daemon.QueueCap != 999 {
		t.Fatal("Get does not see swapped config")
	}
	s.RecordReload(nil)
	if st := s.LastReload(); !st.OK || st.Generation != 2 || st.At.IsZero() {
		t.Fatalf("LastReload = %+v", st)
	}
	s.RecordReload(io.ErrUnexpectedEOF)
	if st := s.LastReload(); st.OK || st.Err == "" {
		t.Fatalf("rejected LastReload = %+v", st)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(DefaultRuntime())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := s.Get()
				if err := r.Validate(); err != nil {
					t.Errorf("torn read: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		r := DefaultRuntime()
		r.Daemon.QueueCap = 1 + i
		s.Swap(r)
		s.RecordReload(nil)
	}
	close(stop)
	wg.Wait()
}
