package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds how long vcseld may take to build its model and
// warm basis before it listens.
const startTimeout = 120 * time.Second

var (
	listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)
	warmRe   = regexp.MustCompile(`msg=warm duration_s=(\S+)`)
)

// daemon is a vcseld child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// setup is exec → first healthy /healthz answer; warm is the duration
	// vcseld logged for building its warm state (0 without -warm).
	setup time.Duration
	warm  float64
	// exited closes once the process has been waited for.
	exited  chan struct{}
	waitErr error
}

// startDaemon runs vcseld on a free loopback port with the given flags and
// returns once it answers /healthz.
func startDaemon(bin string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no vcseld binary: pass -vcseld (benchmark/run.sh builds one)")
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Take vcseld down with the benchmark if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vcseld: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr for the process's whole life so vcseld never
		// blocks on a full pipe; the warm line precedes the listening one.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := warmRe.FindStringSubmatch(line); m != nil {
				d.warm, _ = strconv.ParseFloat(m[1], 64)
			}
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("vcseld exited before listening: %v", d.waitErr)
	case <-time.After(startTimeout):
		d.stop()
		return nil, fmt.Errorf("vcseld did not listen within %v", startTimeout)
	}
	for {
		if _, err := d.health(); err == nil {
			break
		}
		if time.Since(start) > startTimeout {
			d.stop()
			return nil, fmt.Errorf("vcseld at %s never became healthy", d.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// counters are the /healthz query counters of the default spec.
type counters struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Batches        int64 `json:"batches"`
	BatchedQueries int64 `json:"batched_queries"`
}

func (c counters) sub(o counters) counters {
	return counters{
		CacheHits:      c.CacheHits - o.CacheHits,
		CacheMisses:    c.CacheMisses - o.CacheMisses,
		Batches:        c.Batches - o.Batches,
		BatchedQueries: c.BatchedQueries - o.BatchedQueries,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		CacheHits:      c.CacheHits + o.CacheHits,
		CacheMisses:    c.CacheMisses + o.CacheMisses,
		Batches:        c.Batches + o.Batches,
		BatchedQueries: c.BatchedQueries + o.BatchedQueries,
	}
}

func (d *daemon) health() (counters, error) {
	var h struct {
		Specs []counters `json:"specs"`
	}
	if err := getJSON(d.base+"/healthz", &h); err != nil {
		return counters{}, err
	}
	if len(h.Specs) != 1 {
		return counters{}, fmt.Errorf("healthz: %d specs, want 1", len(h.Specs))
	}
	return h.Specs[0], nil
}

var control = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := control.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// procStatusKB reads one memory field (in kB) of /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS sets this process's VmHWM back to its current resident set
// (Linux's clear_refs "5"), so that each design-flow repetition gets a
// peak of its own.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// stop asks vcseld to shut down and waits until it has exited, killing it
// if it does not drain in time.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
