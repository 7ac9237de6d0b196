package e2e

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times on Linux.
const clockTick = 10 * time.Millisecond

// proc is one daemon the benchmark started.
type proc struct {
	cmd *exec.Cmd
	// done holds Wait's result once the process exits; a reader puts it
	// back, so stopping twice is harmless.
	done chan error
	// stderr keeps the daemon's log for the failure report.
	stderr bytes.Buffer
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// start execs bin and waits until every URL in ready answers 200.
func start(ctx context.Context, bin string, args []string, ready ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	p.cmd.Stdout = io.Discard
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for _, u := range ready {
		for {
			resp, err := hc.Get(u)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case err := <-p.done:
				p.done <- err
				return nil, fmt.Errorf("%s exited before ready: %v: %s", bin, err, p.stderr.String())
			case <-ctx.Done():
				p.stop()
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				p.stop()
				return nil, fmt.Errorf("%s not ready at %s after 30s", bin, u)
			}
		}
	}
	return p, nil
}

// stop sends SIGTERM, waits for exit, and kills after a grace period.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.done <- err
		return
	case <-time.After(10 * time.Second):
	}
	p.cmd.Process.Kill()
	p.done <- <-p.done
}

// cpu returns the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the process's VmHWM in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
