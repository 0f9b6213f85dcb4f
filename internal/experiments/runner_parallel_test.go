package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// renderSweep runs the full registry at Small scale on a fresh runner
// with the given worker count and returns the concatenation of every
// rendered table — exactly what `sdsp-exp -scale small` writes to
// stdout — plus the model digest of the sweep's Stats.
func renderSweep(t *testing.T, jobs int) (string, string) {
	t.Helper()
	r := NewRunner(kernels.Small)
	tables, timings, err := r.RunExperiments(Registry(), jobs)
	if err != nil {
		t.Fatalf("RunExperiments(j=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
		}
	}
	return buf.String(), statsDigest(t, r, timings)
}

// statsDigest is the model digest: the sha256 of the JSON of every
// cell's Stats, in declaration order.
func statsDigest(t *testing.T, r *Runner, timings []CellTiming) string {
	t.Helper()
	h := sha256.New()
	for _, tm := range timings {
		data, err := json.Marshal(r.cache[tm.Key].stats)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Sweeps are expensive; the determinism and golden tests share one
// sequential and one 8-way render of the registry.
var (
	sweepOnce          sync.Once
	sweepJ1, sweepJ8   string
	digestJ1, digestJ8 string
)

func sweeps(t *testing.T) (j1, j8 string) {
	t.Helper()
	sweepOnce.Do(func() {
		sweepJ1, digestJ1 = renderSweep(t, 1)
		sweepJ8, digestJ8 = renderSweep(t, 8)
	})
	if sweepJ1 == "" || sweepJ8 == "" {
		t.Fatal("sweep rendering failed in an earlier test")
	}
	return sweepJ1, sweepJ8
}

// TestParallelDeterminism is the headline property of the parallel
// runner: the same experiment set rendered at -j 1 and -j 8 must be
// byte-identical, regardless of worker scheduling or completion order.
func TestParallelDeterminism(t *testing.T) {
	j1, j8 := sweeps(t)
	if j1 != j8 {
		d := firstDiff(j1, j8)
		t.Fatalf("rendered tables differ between -j 1 and -j 8 (first divergence at byte %d: %q vs %q)",
			d, excerpt(j1, d), excerpt(j8, d))
	}
	if digestJ1 != digestJ8 {
		t.Errorf("cell Stats differ between -j 1 and -j 8: digests %s vs %s", digestJ1, digestJ8)
	}
}

// TestPipelineMatchesDirectMode: the declare/schedule/assemble pipeline
// must reproduce the historical sequential path (direct e.Run calls on
// a fresh runner) byte for byte.
func TestPipelineMatchesDirectMode(t *testing.T) {
	j1, _ := sweeps(t)
	r := NewRunner(kernels.Small)
	var buf bytes.Buffer
	for _, e := range Registry() {
		tables, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tab := range tables {
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
		}
	}
	if buf.String() != j1 {
		d := firstDiff(buf.String(), j1)
		t.Fatalf("pipeline output diverges from direct sequential output at byte %d: %q vs %q",
			d, excerpt(buf.String(), d), excerpt(j1, d))
	}
}

// TestDeclarationCoversAssembly: the declaration pass must predict the
// full cell set, and a second sweep on the same runner must be fully
// memoized (zero fresh cells).
func TestDeclarationCoversAssembly(t *testing.T) {
	r := NewRunner(kernels.Small)
	_, timings, err := r.RunExperiments(Registry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) < 100 {
		t.Errorf("declaration pass found only %d cells; the registry needs hundreds", len(timings))
	}
	for _, tm := range timings {
		if tm.Err != "" {
			t.Errorf("cell %s failed: %s", tm.Key, tm.Err)
		}
		if tm.Cycles == 0 {
			t.Errorf("cell %s reports zero simulated cycles", tm.Key)
		}
		if tm.WallSeconds < 0 {
			t.Errorf("cell %s has negative wall time", tm.Key)
		}
	}
	_, again, err := r.RunExperiments(Registry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("second sweep re-simulated %d cells; all should be memoized", len(again))
	}
}

// TestParallelErrorDeterminism: a failing cell must surface the same
// error from the same experiment at every worker count, and must not
// suppress the other experiments' successful cells.
func TestParallelErrorDeterminism(t *testing.T) {
	failing := Experiment{
		Name:  "failing",
		Title: "cell that trips the runaway guard",
		Run: func(r *Runner) ([]Table, error) {
			cfg := r.config(2)
			cfg.MaxCycles = 10 // guaranteed "exceeded 10 cycles" error
			if _, err := r.Run(kernels.GroupI()[0], cfg); err != nil {
				return nil, err
			}
			return []Table{{Title: "unreachable", Headers: []string{"x"}, Rows: [][]string{{"y"}}}}, nil
		},
	}
	exps := []Experiment{Registry()[2], failing} // fig3 + the failing one
	errAt := func(jobs int) string {
		r := NewRunner(kernels.Small)
		_, _, err := r.RunExperiments(exps, jobs)
		if err == nil {
			t.Fatalf("j=%d: expected an error from the failing experiment", jobs)
		}
		return err.Error()
	}
	e1, e8 := errAt(1), errAt(8)
	if e1 != e8 {
		t.Errorf("error differs by worker count:\n  j=1: %s\n  j=8: %s", e1, e8)
	}
	if !strings.Contains(e1, "failing:") {
		t.Errorf("error not attributed to the failing experiment: %s", e1)
	}
}

// TestPlaceholderStatsSafety: placeholder statistics must not produce
// zero denominators or undersized slices for the ratios experiments
// compute while declaring.
func TestPlaceholderStatsSafety(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.FUs = core.EnhancedFUs()
	st := placeholderStats(cfg)
	if st.Cycles == 0 || st.FetchedBlocks == 0 {
		t.Error("placeholder has zero cycle/fetch counters")
	}
	if len(st.CommittedByThread) != cfg.Threads {
		t.Errorf("CommittedByThread sized %d, want %d", len(st.CommittedByThread), cfg.Threads)
	}
	for cl := range st.FUUsage {
		if len(st.FUUsage[cl]) != cfg.FUs.Count[cl] {
			t.Errorf("FUUsage[%d] sized %d, want %d", cl, len(st.FUUsage[cl]), cfg.FUs.Count[cl])
		}
	}
	if st.Cache.HitRate() != 1 || st.Branch.Accuracy() != 1 {
		t.Error("placeholder ratios should be the no-data defaults")
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// excerpt returns a short window of s around offset d.
func excerpt(s string, d int) string {
	lo, hi := d-20, d+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
