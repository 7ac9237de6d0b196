// Package seer is a Go implementation of SEER, the automated predictive
// hoarding system of Kuenning & Popek, "Automated Hoarding for Mobile
// Computers" (SOSP 1997).
//
// SEER watches a user's file references, infers semantic relationships
// between files using lifetime semantic distance, clusters files into
// projects with a modified shared-neighbor algorithm, and selects whole
// projects for local storage ("hoarding") so that work can continue
// while disconnected from the network.
//
// The top-level API wraps the correlator: feed it trace events (from
// the synthetic workload generator, from strace output, or built by
// hand), then ask for clusters and hoard plans:
//
//	s := seer.New()
//	s.ObserveStrace(straceOutput)         // or s.Observe(event)
//	for _, c := range s.Clusters() { ... }
//	plan := s.HoardPlan()
//	files := s.Hoard(50 << 20)            // 50 MB hoard
//
// Subpackages under internal implement the pieces: the observer with
// the paper's real-world heuristics (meaningless processes, shared
// libraries, critical files, temporary files), per-process reference
// streams, the semantic-distance tables, the clustering algorithm,
// external investigators, the CheapRumor replication substrate, the LRU
// and CODA-style baselines, the calibrated workload generator, and the
// simulation harness that regenerates the paper's tables and figures.
package seer

import (
	"io"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
)

// Event is one observed file reference; see the Op constants.
type Event = trace.Event

// PID identifies a traced process.
type PID = trace.PID

// Op is the kind of file reference.
type Op = trace.Op

// The event operation kinds.
const (
	OpOpen       = trace.OpOpen
	OpClose      = trace.OpClose
	OpExec       = trace.OpExec
	OpExit       = trace.OpExit
	OpFork       = trace.OpFork
	OpStat       = trace.OpStat
	OpCreate     = trace.OpCreate
	OpDelete     = trace.OpDelete
	OpRename     = trace.OpRename
	OpMkdir      = trace.OpMkdir
	OpReadDir    = trace.OpReadDir
	OpChdir      = trace.OpChdir
	OpDisconnect = trace.OpDisconnect
	OpReconnect  = trace.OpReconnect
	OpSuspend    = trace.OpSuspend
	OpResume     = trace.OpResume
)

// Params are the algorithm tunables (neighbor table size n, window M,
// clustering thresholds kn/kf, and so on).
type Params = config.Params

// DefaultParams returns the paper's parameter values where stated and
// calibrated values elsewhere.
func DefaultParams() Params { return config.Defaults() }

// Control is the system control file: meaningless programs, critical
// paths, temporary directories, ignored objects.
type Control = config.Control

// DefaultControl mirrors the paper's deployment defaults.
func DefaultControl() *Control { return config.DefaultControl() }

// Relation is an external-investigator finding: a group of related
// files with a strength that is added to the clustering evidence.
type Relation = investigate.Relation

// Cluster is one inferred project.
type Cluster struct {
	ID    int
	Files []string
}

// PlanEntry is one file in the hoard inclusion order.
type PlanEntry struct {
	Path string
	// Size is the file size in bytes; Cum the cumulative plan size
	// through this entry.
	Size, Cum int64
	// Reason is "always", "cluster" or "recency".
	Reason string
	// Cluster is the project id for cluster entries.
	Cluster int
}

// Seer is the top-level hoarding engine. It is not safe for concurrent
// use.
type Seer struct {
	corr *core.Correlator
}

// Option configures New.
type Option func(*core.Options)

// WithParams overrides the parameter set.
func WithParams(p Params) Option {
	return func(o *core.Options) { o.Params = &p }
}

// WithControl overrides the control file.
func WithControl(c *Control) Option {
	return func(o *core.Options) { o.Control = c }
}

// WithSeed fixes the random seed used for tie-breaking and for sizes of
// files whose true size is unknown.
func WithSeed(seed int64) Option {
	return func(o *core.Options) { o.Seed = seed }
}

// WithDirSize supplies the directory fan-out oracle used by the
// meaningless-process heuristic.
func WithDirSize(fn func(path string) int) Option {
	return func(o *core.Options) { o.DirSize = fn }
}

// New returns a Seer with the given options.
func New(opts ...Option) *Seer {
	var co core.Options
	for _, opt := range opts {
		opt(&co)
	}
	return &Seer{corr: core.New(co)}
}

// Observe feeds one trace event.
func (s *Seer) Observe(ev Event) { s.corr.Feed(ev) }

// ObserveAll feeds a slice of events in order.
func (s *Seer) ObserveAll(evs []Event) {
	for _, ev := range evs {
		s.corr.Feed(ev)
	}
}

// ObserveStrace parses strace(1) output and feeds every recognized
// event. See internal/strace for the strace invocation to use.
func (s *Seer) ObserveStrace(r io.Reader) error {
	p := strace.NewParser()
	evs, err := p.Parse(r)
	if err != nil {
		return err
	}
	s.ObserveAll(evs)
	return nil
}

// AddRelations registers external-investigator findings (paper §3.3.3).
func (s *Seer) AddRelations(rels []Relation) { s.corr.AddRelations(rels) }

// InvestigateC runs the C #include investigator over the given source
// files (path → contents) and registers the resulting relations.
func (s *Seer) InvestigateC(files map[string][]byte, includeDirs []string, strength float64) {
	exists := func(p string) bool { return s.corr.FS().Lookup(p) != nil }
	s.AddRelations(investigate.CRelations(files, includeDirs, strength, exists))
}

// InvestigateMakefile runs the makefile investigator over one makefile
// and registers the resulting relations.
func (s *Seer) InvestigateMakefile(path string, content []byte, strength float64) {
	s.AddRelations(investigate.MakefileRelations(path, content, strength))
}

// Events returns the number of events observed.
func (s *Seer) Events() uint64 { return s.corr.Events() }

// KnownFiles returns the number of pathnames in the file table.
func (s *Seer) KnownFiles() int { return s.corr.FS().Len() }

// Clusters runs the clustering algorithm and returns the projects with
// member pathnames.
func (s *Seer) Clusters() []Cluster {
	res := s.corr.Clusters()
	out := make([]Cluster, 0, len(res.Clusters))
	for _, cl := range res.Clusters {
		c := Cluster{ID: cl.ID, Files: make([]string, 0, len(cl.Members))}
		for _, m := range cl.Members {
			if f := s.corr.FS().Get(m); f != nil {
				c.Files = append(c.Files, f.Path)
			}
		}
		out = append(out, c)
	}
	return out
}

// HoardPlan returns the full hoard inclusion order: every known file by
// decreasing priority with cumulative sizes.
func (s *Seer) HoardPlan() []PlanEntry {
	plan := s.corr.Plan()
	out := make([]PlanEntry, 0, plan.Len())
	for _, e := range plan.Entries {
		out = append(out, PlanEntry{
			Path:    e.File.Path,
			Size:    e.File.Size,
			Cum:     e.Cum,
			Reason:  e.Reason.String(),
			Cluster: e.Cluster,
		})
	}
	return out
}

// Hoard selects hoard contents for a byte budget and returns the chosen
// pathnames in hoard-priority order. Only complete projects are hoarded
// (paper §2).
func (s *Seer) Hoard(budgetBytes int64) []string {
	plan := s.corr.Plan()
	contents := plan.Fill(budgetBytes, s.corr.Params().SkipUnfittingClusters)
	var out []string
	for _, id := range contents.IDs() {
		out = append(out, s.corr.FS().Get(id).Path)
	}
	return out
}

// SetFileSize records the true size of a file, overriding the geometric
// draw used when sizes are unknown (paper §5.1.2).
func (s *Seer) SetFileSize(path string, size int64) {
	f := s.corr.FS().Lookup(path)
	if f == nil {
		f = s.corr.FS().Intern(path, simfs.Regular, 0)
	}
	s.corr.FS().Resize(f.ID, size)
}

// MissLogSeverity re-exports the hoard severity scale for callers that
// record manual misses (paper §4.4).
type MissLogSeverity = hoard.Severity

// RecordMiss implements the user side of the paper's miss-recording
// mechanism (§4.4): the missed file — and every member of its project —
// is marked for unconditional inclusion in future hoard plans. It
// returns the project mates that were pulled in alongside.
func (s *Seer) RecordMiss(path string) []string { return s.corr.ForceHoard(path) }

// Save checkpoints the learned state (file table, semantic-distance
// tables, observer counters and histories) so a restarted process can
// resume with months of learned relationships intact. Per-process
// transient state is not saved; a restore behaves like a reboot.
func (s *Seer) Save(w io.Writer) error { return s.corr.Save(w) }

// Load restores a Seer saved with Save. Options supply configuration
// (parameters, control file, directory sizer), which is not part of the
// saved state.
func Load(r io.Reader, opts ...Option) (*Seer, error) {
	var co core.Options
	for _, opt := range opts {
		opt(&co)
	}
	corr, err := core.Load(r, co)
	if err != nil {
		return nil, err
	}
	return &Seer{corr: corr}, nil
}
