// Package config holds the SEER parameter set and the system control
// file. The paper's algorithms are governed by a number of constants
// (§4.9): the neighbor-table size n = 20, the lookahead window M = 100,
// the clustering thresholds kn and kf, the frequently-referenced-file
// threshold of 1% of all accesses, and so on. The system administrator
// additionally supplies a control file naming meaningless programs
// (§4.1), critical files and directories (§4.3), temporary directories
// (§4.5), and ignored filesystem objects (§4.6).
package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Params collects every tunable of the semantic-distance and clustering
// machinery. The zero value is not useful; start from Defaults().
type Params struct {
	// NeighborTableSize is n, the number of closest neighbors tracked
	// per file (paper: n = 20).
	NeighborTableSize int
	// Window is M, the maximum lookback (in file opens) when relating a
	// new reference to prior ones (paper: M = 100). Distances that would
	// exceed M for an already-known neighbor are clamped to M.
	Window int
	// KNear is kn: pairs sharing at least KNear neighbors have their
	// clusters combined.
	KNear int
	// KFar is kf (kf < kn): pairs sharing at least KFar but fewer than
	// KNear neighbors are cross-inserted into each other's clusters
	// without combining them.
	KFar int
	// FrequentFileFraction is the fraction of all accesses above which a
	// file is declared frequently-referenced (a shared library, paper
	// §4.2: 1%), excluded from distance computations, and always hoarded.
	FrequentFileFraction float64
	// FrequentFileMinRefs avoids declaring files frequent before enough
	// evidence accumulates (e.g. the very first referenced file is 100%
	// of all accesses).
	FrequentFileMinRefs int
	// AgeLimit is the number of file opens after which an un-refreshed
	// neighbor-table entry becomes eligible for replacement by a newer
	// relationship (paper §3.1.3: the aging system).
	AgeLimit uint64
	// DeletionDelay is the number of subsequent delete operations for
	// which a deleted file's relationship data is retained, because many
	// programs delete and immediately recreate files (paper §4.8).
	DeletionDelay int
	// MeaninglessRatio is the threshold on (files actually touched) /
	// (files learned about from directory reads) above which a program's
	// history marks it meaningless (paper §4.1, approach 4).
	MeaninglessRatio float64
	// MeaninglessMinLearned is the minimum number of directory-learned
	// files before the ratio is meaningful.
	MeaninglessMinLearned int
	// DirDistanceWeight scales the directory-distance penalty subtracted
	// from shared-neighbor counts (paper §3.3.3).
	DirDistanceWeight float64
	// InvestigatorWeight scales external-investigator relation strengths
	// added to shared-neighbor counts (paper §3.3.3).
	InvestigatorWeight float64
	// SkipUnfittingClusters selects hoard-filling behaviour: if true,
	// a cluster too large for the remaining budget is skipped and lower
	// priority clusters may still be added; if false, filling stops at
	// the first cluster that does not fit.
	SkipUnfittingClusters bool
	// HoardSize is the hoard budget in bytes used by live hoard filling
	// (Table 4 used 50 MB for most machines).
	HoardSize int64
	// AutoTempMinCreates enables automatic temporary-directory detection
	// (the future work of paper §4.5): a directory with at least this
	// many observed file creations and a delete/create ratio of at
	// least AutoTempRatio is treated as transient. 0 disables.
	AutoTempMinCreates int
	// AutoTempRatio is the delete/create threshold for automatic
	// temporary-directory detection.
	AutoTempRatio float64
	// DistanceMode selects the semantic-distance definition (§3.1.1):
	// 0 = lifetime (Definition 3, the paper's choice), 1 = sequence
	// (Definition 2), 2 = temporal (Definition 1, seconds). The
	// alternatives exist for the ablation that motivates Definition 3.
	DistanceMode int
	// ClusterChurnPct is the incremental-clustering churn threshold: when
	// the files whose neighbor lists changed since the last clustering
	// number at most this percentage of all tracked files, the correlator
	// patches the previous cluster result in place instead of rebuilding
	// it from scratch. 0 disables incremental clustering entirely (every
	// change pays a full rebuild). Exposed as the hot-reloadable
	// `cluster-churn-threshold` knob.
	ClusterChurnPct int
}

// Defaults returns the parameter values from the paper where it states
// them (n, M, 1%) and calibrated values where it defers to the thesis
// (kn, kf, aging, meaningless threshold).
func Defaults() Params {
	return Params{
		NeighborTableSize:     20,
		Window:                100,
		KNear:                 4,
		KFar:                  2,
		FrequentFileFraction:  0.01,
		FrequentFileMinRefs:   100,
		AgeLimit:              20000,
		DeletionDelay:         50,
		MeaninglessRatio:      0.7,
		MeaninglessMinLearned: 20,
		DirDistanceWeight:     0.25,
		InvestigatorWeight:    1.0,
		SkipUnfittingClusters: true,
		HoardSize:             50 << 20,
		AutoTempMinCreates:    25,
		AutoTempRatio:         0.8,
		ClusterChurnPct:       20,
	}
}

// Validate reports the first inconsistency in p, or nil.
func (p Params) Validate() error {
	switch {
	case p.NeighborTableSize < 1:
		return fmt.Errorf("config: NeighborTableSize %d < 1", p.NeighborTableSize)
	case p.Window < 1:
		return fmt.Errorf("config: Window %d < 1", p.Window)
	case p.KNear <= p.KFar:
		return fmt.Errorf("config: KNear %d must exceed KFar %d", p.KNear, p.KFar)
	case p.KFar < 1:
		return fmt.Errorf("config: KFar %d < 1", p.KFar)
	case p.KNear > p.NeighborTableSize:
		return fmt.Errorf("config: KNear %d exceeds neighbor table size %d",
			p.KNear, p.NeighborTableSize)
	case p.FrequentFileFraction <= 0 || p.FrequentFileFraction >= 1:
		return fmt.Errorf("config: FrequentFileFraction %g outside (0,1)",
			p.FrequentFileFraction)
	case p.MeaninglessRatio <= 0 || p.MeaninglessRatio > 1:
		return fmt.Errorf("config: MeaninglessRatio %g outside (0,1]",
			p.MeaninglessRatio)
	case p.HoardSize < 0:
		return fmt.Errorf("config: negative HoardSize %d", p.HoardSize)
	case p.DeletionDelay < 0:
		return fmt.Errorf("config: negative DeletionDelay %d", p.DeletionDelay)
	case p.AutoTempMinCreates > 0 && (p.AutoTempRatio <= 0 || p.AutoTempRatio > 1):
		return fmt.Errorf("config: AutoTempRatio %g outside (0,1]", p.AutoTempRatio)
	case p.DistanceMode < 0 || p.DistanceMode > 2:
		return fmt.Errorf("config: DistanceMode %d outside [0,2]", p.DistanceMode)
	case p.ClusterChurnPct < 0 || p.ClusterChurnPct > 100:
		return fmt.Errorf("config: ClusterChurnPct %d outside [0,100]", p.ClusterChurnPct)
	}
	return nil
}

// Control is the parsed system control file (paper §4.1, §4.3, §4.5,
// §4.6). A zero Control permits everything.
type Control struct {
	// Meaningless lists program names whose references are always
	// ignored (the paper hand-lists xargs, rdist, the replication
	// substrate, and the external investigators).
	Meaningless map[string]bool
	// Critical lists path prefixes (files or directories) that are kept
	// outside SEER's control and always hoarded, such as /etc.
	Critical []string
	// TempDirs lists directory prefixes whose files are completely
	// ignored, such as /tmp.
	TempDirs []string
	// Ignored lists path prefixes for non-file objects excluded from
	// distance and clustering calculations, such as /dev.
	Ignored []string
	// HoardDotFiles applies the UNIX-specific heuristic of §4.3: any
	// file whose name begins with a period is critical.
	HoardDotFiles bool
}

// DefaultControl mirrors the paper's deployment: /tmp is transient,
// /etc is critical, /dev and /proc are ignored non-files, dot files are
// hoarded, and the four hand-listed meaningless programs are filtered.
func DefaultControl() *Control {
	return &Control{
		Meaningless: map[string]bool{
			"xargs": true, "rdist": true, "rumor": true, "investigator": true,
		},
		Critical:      []string{"/etc"},
		TempDirs:      []string{"/tmp", "/var/tmp"},
		Ignored:       []string{"/dev", "/proc"},
		HoardDotFiles: true,
	}
}

// EmptyControl returns a Control that filters nothing.
func EmptyControl() *Control {
	return &Control{Meaningless: map[string]bool{}}
}

// IsMeaninglessProgram reports whether prog is hand-listed meaningless.
func (c *Control) IsMeaninglessProgram(prog string) bool {
	return c.Meaningless[prog]
}

// hasPrefixDir reports whether path is prefix or lies under prefix.
func hasPrefixDir(path, prefix string) bool {
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/' ||
		strings.HasSuffix(prefix, "/")
}

// IsCritical reports whether path is under a critical prefix or (when
// HoardDotFiles) has a basename beginning with a period.
func (c *Control) IsCritical(path string) bool {
	for _, p := range c.Critical {
		if hasPrefixDir(path, p) {
			return true
		}
	}
	if c.HoardDotFiles {
		// The paper's heuristic covers names beginning with a period;
		// we extend it to any path component so files inside dot
		// directories (e.g. ~/.config/app) are also protected.
		for _, comp := range strings.Split(path, "/") {
			if strings.HasPrefix(comp, ".") && comp != "." && comp != ".." {
				return true
			}
		}
	}
	return false
}

// IsTemp reports whether path lies in a transient directory.
func (c *Control) IsTemp(path string) bool {
	for _, p := range c.TempDirs {
		if hasPrefixDir(path, p) {
			return true
		}
	}
	return false
}

// IsIgnored reports whether path is an ignored non-file object.
func (c *Control) IsIgnored(path string) bool {
	for _, p := range c.Ignored {
		if hasPrefixDir(path, p) {
			return true
		}
	}
	return false
}

// ParseControl reads a control file. The format is line-oriented:
//
//	# comment
//	meaningless find
//	critical /etc
//	tempdir /tmp
//	ignore /dev
//	dotfiles on|off
//	param KNear 4
//
// param lines override Params fields by name; unknown names are errors
// so typos do not silently change behaviour.
func ParseControl(r io.Reader, p *Params) (*Control, error) {
	c := EmptyControl()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("control: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "meaningless":
			if len(fields) != 2 {
				return nil, errf("meaningless wants 1 argument")
			}
			c.Meaningless[fields[1]] = true
		case "critical":
			if len(fields) != 2 {
				return nil, errf("critical wants 1 argument")
			}
			c.Critical = append(c.Critical, fields[1])
		case "tempdir":
			if len(fields) != 2 {
				return nil, errf("tempdir wants 1 argument")
			}
			c.TempDirs = append(c.TempDirs, fields[1])
		case "ignore":
			if len(fields) != 2 {
				return nil, errf("ignore wants 1 argument")
			}
			c.Ignored = append(c.Ignored, fields[1])
		case "dotfiles":
			if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
				return nil, errf("dotfiles wants on|off")
			}
			c.HoardDotFiles = fields[1] == "on"
		case "param":
			if len(fields) != 3 {
				return nil, errf("param wants name and value")
			}
			if p == nil {
				return nil, errf("param directive with no Params target")
			}
			if err := setParam(p, fields[1], fields[2]); err != nil {
				return nil, errf("%v", err)
			}
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// field is a parse/render pair over one field of a settings struct T,
// the common core of every knob and param row.
type field[T any] struct {
	set func(*T, string) error
	get func(*T) string
}

// fieldOf builds the field that ptr selects, parsed by parse and
// rendered by format.
func fieldOf[T, V any](ptr func(*T) *V, parse func(string) (V, error), format func(V) string) field[T] {
	return field[T]{
		set: func(t *T, s string) error {
			v, err := parse(s)
			if err == nil {
				*ptr(t) = v
			}
			return err
		},
		get: func(t *T) string { return format(*ptr(t)) },
	}
}

func parseString(s string) (string, error) { return s, nil }
func formatString(s string) string         { return s }
func parseInt64(s string) (int64, error)   { return strconv.ParseInt(s, 10, 64) }
func formatInt64(v int64) string           { return strconv.FormatInt(v, 10) }
func parseUint64(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
func formatUint64(v uint64) string         { return strconv.FormatUint(v, 10) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func formatFloat(v float64) string         { return strconv.FormatFloat(v, 'g', -1, 64) }

// param is one row of the paper-parameter table: the name a `param`
// directive and /debug/config use, and the Params field it reads and
// sets.
type param struct {
	name string
	// hot params take effect on a live reload: they are read at
	// clustering, plan or fill time (or when new investigator relations
	// register), so a SetParams plus cache invalidation suffices. The
	// rest are frozen into the observer or neighbor table at
	// construction, so a reload may not change them.
	hot bool
	field[Params]
}

// params is the parameter table, in rendering order. ClusterChurnPct
// has no row: it is the cluster-churn-threshold knob.
var params = []param{
	{name: "NeighborTableSize",
		field: fieldOf(func(p *Params) *int { return &p.NeighborTableSize }, strconv.Atoi, strconv.Itoa)},
	{name: "Window",
		field: fieldOf(func(p *Params) *int { return &p.Window }, strconv.Atoi, strconv.Itoa)},
	{name: "KNear", hot: true,
		field: fieldOf(func(p *Params) *int { return &p.KNear }, strconv.Atoi, strconv.Itoa)},
	{name: "KFar", hot: true,
		field: fieldOf(func(p *Params) *int { return &p.KFar }, strconv.Atoi, strconv.Itoa)},
	{name: "FrequentFileFraction",
		field: fieldOf(func(p *Params) *float64 { return &p.FrequentFileFraction }, parseFloat, formatFloat)},
	{name: "FrequentFileMinRefs",
		field: fieldOf(func(p *Params) *int { return &p.FrequentFileMinRefs }, strconv.Atoi, strconv.Itoa)},
	{name: "AgeLimit",
		field: fieldOf(func(p *Params) *uint64 { return &p.AgeLimit }, parseUint64, formatUint64)},
	{name: "DeletionDelay",
		field: fieldOf(func(p *Params) *int { return &p.DeletionDelay }, strconv.Atoi, strconv.Itoa)},
	{name: "MeaninglessRatio",
		field: fieldOf(func(p *Params) *float64 { return &p.MeaninglessRatio }, parseFloat, formatFloat)},
	{name: "MeaninglessMinLearned",
		field: fieldOf(func(p *Params) *int { return &p.MeaninglessMinLearned }, strconv.Atoi, strconv.Itoa)},
	{name: "DirDistanceWeight", hot: true,
		field: fieldOf(func(p *Params) *float64 { return &p.DirDistanceWeight }, parseFloat, formatFloat)},
	{name: "InvestigatorWeight", hot: true,
		field: fieldOf(func(p *Params) *float64 { return &p.InvestigatorWeight }, parseFloat, formatFloat)},
	{name: "SkipUnfittingClusters", hot: true,
		field: fieldOf(func(p *Params) *bool { return &p.SkipUnfittingClusters }, strconv.ParseBool, strconv.FormatBool)},
	{name: "HoardSize", hot: true,
		field: fieldOf(func(p *Params) *int64 { return &p.HoardSize }, parseInt64, formatInt64)},
	{name: "AutoTempMinCreates",
		field: fieldOf(func(p *Params) *int { return &p.AutoTempMinCreates }, strconv.Atoi, strconv.Itoa)},
	{name: "AutoTempRatio",
		field: fieldOf(func(p *Params) *float64 { return &p.AutoTempRatio }, parseFloat, formatFloat)},
	{name: "DistanceMode",
		field: fieldOf(func(p *Params) *int { return &p.DistanceMode }, strconv.Atoi, strconv.Itoa)},
}

// setParam applies one `param Name Value` directive to p.
func setParam(p *Params, name, value string) error {
	for i := range params {
		if params[i].name == name {
			if err := params[i].set(p, value); err != nil {
				return fmt.Errorf("param %s: %w", name, err)
			}
			return nil
		}
	}
	return fmt.Errorf("unknown param %q", name)
}
