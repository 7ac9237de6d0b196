package slo

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/obs"
)

// counters is a mutable fake objective source: tests bump the fields
// between Ticks and the monitor reads them as cumulative counts.
type counters struct {
	total, bad uint64
}

func (c *counters) objective(name string, target float64) Objective {
	return Objective{
		Name:   name,
		Target: target,
		Total:  func() uint64 { return c.total },
		Bad:    func() uint64 { return c.bad },
	}
}

// Burn math straight from the definition: (bad/total over the window)
// divided by the budgeted fraction (1 - target).
func TestBurnMath(t *testing.T) {
	m := New(Config{Threshold: 1000}) // never breach here
	var c counters
	// Target 0.5 keeps the budget exactly representable, so the burn
	// compares exactly below.
	m.Add(c.objective("api", 0.5))

	fast := DefaultFastWindow
	m.Tick() // one sample: no window yet
	if got := m.Burn("api", fast); got != 0 {
		t.Fatalf("burn with a single sample = %g, want 0", got)
	}

	c.total, c.bad = 100, 25
	m.Tick()
	// 25% bad against a 50% budget: burning at half speed.
	if got := m.Burn("api", fast); got != 0.5 {
		t.Fatalf("burn = %g, want 0.5", got)
	}
	if got := m.Burn("nonesuch", fast); got != 0 {
		t.Fatalf("burn of unknown objective = %g, want 0", got)
	}

	// No new events across the most recent span: with a window shorter
	// than the inter-tick gap, the diff is against the previous sample
	// only, so the burn falls back to 0.
	m.Tick()
	if got := m.Burn("api", time.Nanosecond); got != 0 {
		t.Fatalf("burn over an idle span = %g, want 0", got)
	}
}

// A counter reset (process restart upstream) must read as zero burn,
// not a huge negative-wrapped one.
func TestBurnCounterReset(t *testing.T) {
	m := New(Config{})
	var c counters
	m.Add(c.objective("api", 0.99))

	c.total, c.bad = 1000, 1000
	m.Tick()
	c.total, c.bad = 10, 10 // reset below the previous sample
	m.Tick()
	if got := m.Burn("api", DefaultFastWindow); got != 0 {
		t.Fatalf("burn across a counter reset = %g, want 0", got)
	}
}

// The breach latch is edge-triggered: OnBreach fires once on the way
// in, stays quiet while the breach persists, and re-arms after the
// burn recovers.
func TestBreachEdgeTriggerAndRecovery(t *testing.T) {
	var fired []string
	// A 1ns fast window diffs each tick against the previous sample
	// only, so the breach state tracks the most recent span and the
	// test never has to wait out a real window.
	m := New(Config{
		FastWindow: time.Nanosecond,
		Threshold:  2,
		MinBetween: time.Nanosecond,
		OnBreach:   func(name string, fast, slow float64) { fired = append(fired, name) },
	})
	var c counters
	m.Add(c.objective("api", 0.99))

	m.Tick() // baseline
	c.total, c.bad = 10, 10
	m.Tick() // 100% bad: burn 100 >= 2
	if len(fired) != 1 || fired[0] != "api" {
		t.Fatalf("OnBreach fired %v, want [api]", fired)
	}
	if br := m.Breached(); len(br) != 1 || br[0] != "api" {
		t.Fatalf("Breached() = %v, want [api]", br)
	}

	c.total, c.bad = 20, 20
	m.Tick() // still 100% bad: latched, no second fire
	if len(fired) != 1 {
		t.Fatalf("OnBreach re-fired while latched: %v", fired)
	}

	c.total = 120 // 100 good events, no new bad
	m.Tick()
	if br := m.Breached(); len(br) != 0 {
		t.Fatalf("Breached() = %v after recovery, want empty", br)
	}

	c.total, c.bad = 130, 30
	m.Tick() // breach again: edge re-fires
	if len(fired) != 2 {
		t.Fatalf("OnBreach after recovery fired %v, want a second entry", fired)
	}
}

// MinBetween debounces across objectives: two breaching in the same
// tick produce one callback, and the second objective still latches.
func TestBreachDebounceAcrossObjectives(t *testing.T) {
	var fired []string
	m := New(Config{
		FastWindow: time.Nanosecond,
		Threshold:  2,
		MinBetween: time.Hour,
		OnBreach:   func(name string, fast, slow float64) { fired = append(fired, name) },
	})
	var a, b counters
	m.Add(a.objective("first", 0.99))
	m.Add(b.objective("second", 0.99))

	m.Tick()
	a.total, a.bad = 10, 10
	b.total, b.bad = 10, 10
	m.Tick()
	if len(fired) != 1 || fired[0] != "first" {
		t.Fatalf("OnBreach fired %v, want just [first] (debounced)", fired)
	}
	if br := m.Breached(); len(br) != 2 {
		t.Fatalf("Breached() = %v, want both despite the debounce", br)
	}
}

// LatencyObjective accounting over a real histogram: bad = over-
// threshold observations plus errors that never reached the histogram,
// total = observations plus those errors.
func TestLatencyObjective(t *testing.T) {
	h := obs.NewHistogram([]float64{0.1, 1})
	for i := 0; i < 3; i++ {
		h.Observe(0.05) // good
	}
	h.Observe(2.0) // over threshold
	h.Observe(2.0)
	var errs uint64 = 4
	o := LatencyObjective("plan", h, 0.1, 0.99, func() uint64 { return errs })
	if got := o.Total(); got != 9 {
		t.Fatalf("Total = %d, want 9 (5 observations + 4 errors)", got)
	}
	if got := o.Bad(); got != 6 {
		t.Fatalf("Bad = %d, want 6 (2 slow + 4 errors)", got)
	}

	// nil errs defaults to zero, not a panic.
	o = LatencyObjective("plan", h, 0.1, 0.99, nil)
	if got, want := o.Total(), uint64(5); got != want {
		t.Fatalf("Total with nil errs = %d, want %d", got, want)
	}
	if got, want := o.Bad(), uint64(2); got != want {
		t.Fatalf("Bad with nil errs = %d, want %d", got, want)
	}
}

// Add clamps a nonsense target to 0.99, and the burn and the latch
// follow each objective's cumulative counts at its own target.
func TestTargetClampAndBurn(t *testing.T) {
	m := New(Config{FastWindow: time.Nanosecond, Threshold: 2})
	var a, b, c counters
	m.Add(a.objective("zero", 0))
	m.Add(b.objective("overone", 1.5))
	m.Add(c.objective("valid", 0.9))

	m.Tick()
	a.total, a.bad = 10, 10
	b.total, b.bad = 1000, 1
	c.total, c.bad = 100, 10
	m.Tick()

	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	// An hour-long window spans both samples; the latch below followed
	// the 1ns fast window at the last Tick.
	// 10 of 10 bad at a clamped 0.99: 100 times the budget.
	if got := m.Burn("zero", time.Hour); !near(got, 100) {
		t.Fatalf("zero-target burn = %g, want 100 (target clamped to 0.99)", got)
	}
	// 1 in 1000 bad at a clamped 0.99 burns 0.1; an unclamped 1.5 has
	// no budget and would burn 0.
	if got := m.Burn("overone", time.Hour); !near(got, 0.1) {
		t.Fatalf("over-one burn = %g, want 0.1 (target clamped to 0.99)", got)
	}
	// 10 in 100 bad at 0.9 is exactly on budget; clamped it would be 10.
	if got := m.Burn("valid", time.Hour); !near(got, 1) {
		t.Fatalf("valid burn = %g, want 1 (target 0.9 untouched)", got)
	}
	if br := m.Breached(); len(br) != 1 || br[0] != "zero" {
		t.Fatalf("Breached() = %v, want [zero]", br)
	}
}

// InstrumentOn serves live burn rates as seer_slo_burn_rate{slo,window}
// on a plain registry scrape.
func TestInstrumentOn(t *testing.T) {
	m := New(Config{})
	var c counters
	m.Add(c.objective("api", 0.5))
	reg := obs.NewRegistry()
	m.InstrumentOn(reg)

	m.Tick()
	c.total, c.bad = 100, 25
	m.Tick()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `seer_slo_burn_rate{slo="api",window="fast"} 0.5`) {
		t.Fatalf("fast burn gauge missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `seer_slo_burn_rate{slo="api",window="slow"} 0.5`) {
		t.Fatalf("slow burn gauge missing or wrong:\n%s", out)
	}
}
