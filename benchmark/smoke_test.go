package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload, untraced and traced, at the
// preview mesh with one-second query phases, and checks that every metric
// is measured and every correctness check passes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds vcseld and runs both workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vcseld")
	if out, err := exec.Command("go", "build", "-o", bin, "vcselnoc/cmd/vcseld").CombinedOutput(); err != nil {
		t.Fatalf("build vcseld: %v\n%s", err, out)
	}
	p := plan{warmup: 250 * time.Millisecond, closed: time.Second, open: time.Second}
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			cfg := config{seed: 1, trace: traced, res: "preview", vcseld: bin, work: dir, plan: p}
			r, err := runWorkload(wl, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", wl, traced, err)
			}
			for _, c := range r.checks {
				if !c.ok {
					t.Errorf("%s (trace %v): check %s failed: %s", wl, traced, c.name, c.detail)
				}
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed", wl, traced, r.failed, r.attempted)
			}
			for _, d := range r.reported() {
				_, ok := r.values[d.name]
				if want := !traced || d.measuredOn(wl); ok != want {
					t.Errorf("%s (trace %v): metric %s measured %v, want %v", wl, traced, d.name, ok, want)
				}
			}
			if _, err := summarise([]*result{r}); err != nil {
				t.Error(err)
			}
			if !traced {
				continue
			}
			var tf traceFile
			b, err := os.ReadFile(cfg.tracePath(wl))
			if err == nil {
				err = json.Unmarshal(b, &tf)
			}
			if err != nil || len(tf.Spans) == 0 {
				t.Errorf("%s: trace file: %v (%d spans)", wl, err, len(tf.Spans))
			}
			if wl == designFlow {
				if f := r.values["flow.attributed_frac"].v; f < 0.95 {
					t.Errorf("flow.attributed_frac = %.3f, want ≥ 0.95", f)
				}
			}
		}
	}
}
