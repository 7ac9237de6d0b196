package strace

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"
)

// FuzzParseLine asserts the strace parser never panics and maintains
// its invariants on arbitrary input: produced events have increasing
// sequence numbers and a valid op.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		`1234  12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3`,
		`1234 close(3) = 0`,
		`100 execve("/usr/bin/cc", ["cc"], ...) = 0`,
		`100 clone(child_stack=NULL) = 101`,
		`1 rename("/a", "/b") = 0`,
		`1 symlinkat("/t", AT_FDCWD, "/l") = 0`,
		`1 openat(AT_FDCWD, "/x <unfinished ...>`,
		`1 <... openat resumed>) = 5`,
		`+++ exited with 0 +++`,
		`--- SIGCHLD ---`,
		`garbage ( with parens ) = and equals`,
		`999999999999999999999 open("/x") = 1`,
		"1 stat(\"/weird \\\" quote\", 0x0) = -1 ENOENT",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p := NewParser()
		var lastSeq uint64
		// Feed the fuzz line between two normal lines so stashed
		// unfinished state is exercised.
		for _, l := range []string{
			`7 openat(AT_FDCWD, "/a", O_RDONLY) = 3`,
			line,
			`7 close(3) = 0`,
		} {
			ev, ok := p.ParseLine(l)
			if !ok {
				continue
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Op.String() == "invalid" {
				t.Fatalf("invalid op emitted for %q", l)
			}
		}
	})
}

// FuzzParse runs whole inputs through the stream parser.
func FuzzParse(f *testing.F) {
	f.Add("1 open(\"/a\") = 3\n1 close(3) = 0\n")
	f.Add("")
	f.Add(strings.Repeat("x", 2000))
	f.Fuzz(func(t *testing.T, src string) {
		p := NewParser()
		if _, err := p.Parse(strings.NewReader(src)); err != nil {
			// Scanner errors (e.g. absurd line lengths) are acceptable;
			// panics are not, and would fail the test by themselves.
			t.Skip()
		}
	})
}

// sscanfTimestamp is parseTimestamp in its reference form, scanning the
// token with fmt.Sscanf. FuzzParseTimestamp holds the hand scanner to it.
func sscanfTimestamp(line string, base time.Time) (time.Time, string, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return time.Time{}, line, false
	}
	tok := line[:sp]
	var h, m int
	var sec float64
	if n, err := fmt.Sscanf(tok, "%d:%d:%f", &h, &m, &sec); n != 3 || err != nil {
		return time.Time{}, line, false
	}
	t := time.Date(base.Year(), base.Month(), base.Day(), h, m, 0, 0, base.Location()).
		Add(time.Duration(sec * float64(time.Second)))
	return t, strings.TrimSpace(line[sp:]), true
}

// straceStamp is the shape strace -t/-tt prints: digits:digits:digits
// with an optional fraction.
var straceStamp = regexp.MustCompile(`^[0-9]+:[0-9]+:[0-9]+(\.[0-9]+)?$`)

// FuzzParseTimestamp checks the hand scanner against fmt.Sscanf: every
// timestamp it accepts, Sscanf accepts with the same time and rest, and
// on every token of strace's own shape the two agree on acceptance.
// Sscanf's extra forms (signs, exponents, hex, inf, trailing bytes) may
// be refused.
func FuzzParseTimestamp(f *testing.F) {
	for _, s := range []string{
		`12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3`,
		"23:59:59 close(3) = 0",
		"00:00:00.1   stat(\"/a\") = 0",
		"99:99:99.999999999 x",
		"1:2:3. x", "1:2:.5 x", "+1:2:3 x", "1:-2:3 x", "1:2:3e2 x",
		"1:2:0x1p3 x", "1:2:inf x", "1:2:3.5abc x", "1:2 x", "::: x",
		"999999999999999999999:0:0 x", "1:2:3\t4 x", "1_0:2:3 x",
		"12:00:01.000001",
	} {
		f.Add(s)
	}
	base := time.Date(1997, 1, 6, 8, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, line string) {
		got, gotRest, ok := parseTimestamp(line, base)
		want, wantRest, wantOK := sscanfTimestamp(line, base)
		if ok && (!wantOK || !got.Equal(want) || gotRest != wantRest) {
			t.Fatalf("%q: scanned %v %q, Sscanf %v %q ok=%v", line, got, gotRest, want, wantRest, wantOK)
		}
		if sp := strings.IndexByte(line, ' '); sp >= 0 && straceStamp.MatchString(line[:sp]) && ok != wantOK {
			t.Fatalf("%q: scanner ok=%v, Sscanf ok=%v", line, ok, wantOK)
		}
	})
}

// TestParseTimestampStraceForms feeds random timestamps of strace's own
// shape through both scanners: each must accept, with equal results.
func TestParseTimestampStraceForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(1997, 1, 6, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 5000; i++ {
		line := fmt.Sprintf("%02d:%02d:%02d", rng.Intn(24), rng.Intn(60), rng.Intn(60))
		switch i % 3 {
		case 1:
			line += fmt.Sprintf(".%06d", rng.Intn(1000000))
		case 2:
			line += fmt.Sprintf(".%0*d", 1+rng.Intn(12), rng.Int63n(1000000000000))
		}
		line += " close(3) = 0"
		got, rest, ok := parseTimestamp(line, base)
		want, wantRest, wantOK := sscanfTimestamp(line, base)
		if !ok || !wantOK || !got.Equal(want) || rest != wantRest {
			t.Fatalf("%q: scanned %v %q %v, Sscanf %v %q %v", line, got, rest, ok, want, wantRest, wantOK)
		}
	}
}
