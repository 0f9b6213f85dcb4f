package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// sweep is one render of the full registry at Small scale on a fresh
// runner: exactly what `sdsp-exp -scale small` writes to stdout, with
// the runner, tables, timings and exports behind it.
type sweep struct {
	r       *Runner
	tables  [][]Table
	timings []CellTiming
	exports map[string]any
	out     string // every table, rendered
	digest  string // the model digest of the sweep's Stats
}

func renderSweep(t *testing.T, jobs int) sweep {
	t.Helper()
	s := sweep{r: NewRunner(kernels.Small)}
	var err error
	s.tables, s.timings, err = s.r.RunExperiments(Registry(), jobs)
	if err != nil {
		t.Fatalf("RunExperiments(j=%d): %v", jobs, err)
	}
	if s.exports, err = s.r.Exports(Registry()); err != nil {
		t.Fatalf("Exports(j=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	for _, ts := range s.tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
		}
	}
	s.out, s.digest = buf.String(), statsDigest(t, s.r, s.timings)
	return s
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

// Sweeps are expensive; the tests share one sequential and one 8-way
// render of the registry.
var (
	sweepOnce        sync.Once
	sweepJ1, sweepJ8 sweep
)

func sweeps(t *testing.T) (j1, j8 sweep) {
	t.Helper()
	sweepOnce.Do(func() {
		sweepJ1 = renderSweep(t, 1)
		sweepJ8 = renderSweep(t, 8)
	})
	if sweepJ1.out == "" || sweepJ8.out == "" {
		t.Fatal("sweep rendering failed in an earlier test")
	}
	return sweepJ1, sweepJ8
}

// tablesOf returns the named experiment's tables from the sequential
// sweep.
func tablesOf(t *testing.T, name string) []Table {
	t.Helper()
	j1, _ := sweeps(t)
	for i, e := range Registry() {
		if e.Name == name {
			return j1.tables[i]
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// probe runs fn as a one-off experiment through RunExperiments: the
// cells fn requests are declared, executed on jobs workers, and served
// to its assembly pass, whose results stay in whatever fn captured.
func probe(r *Runner, jobs int, fn func(r *Runner) error) ([]CellTiming, error) {
	e := Experiment{Name: "probe", Run: func(r *Runner) ([]Table, error) { return nil, fn(r) }}
	_, timings, err := r.RunExperiments([]Experiment{e}, jobs)
	return timings, err
}

// TestParallelDeterminism is the headline property of the parallel
// runner: the same experiment set rendered at -j 1 and -j 8 must be
// byte-identical, regardless of worker scheduling or completion order.
func TestParallelDeterminism(t *testing.T) {
	j1, j8 := sweeps(t)
	if j1.out != j8.out {
		d := firstDiff(j1.out, j8.out)
		t.Fatalf("rendered tables differ between -j 1 and -j 8 (first divergence at byte %d: %q vs %q)",
			d, excerpt(j1.out, d), excerpt(j8.out, d))
	}
	if j1.digest != j8.digest {
		t.Errorf("cell Stats differ between -j 1 and -j 8: digests %s vs %s", j1.digest, j8.digest)
	}
}

// TestExportsParallelIdentity: every experiment's export, the rows
// sdsp-exp -json writes, must be non-empty and identical between the
// -j 1 and -j 8 sweeps.
func TestExportsParallelIdentity(t *testing.T) {
	j1, j8 := sweeps(t)
	n := 0
	for _, e := range Registry() {
		if e.Export == nil {
			continue
		}
		n++
		t.Run(e.Name, func(t *testing.T) {
			x1, x8 := j1.exports[e.Name], j8.exports[e.Name]
			if v := reflect.ValueOf(x1); v.Kind() != reflect.Slice || v.Len() == 0 {
				t.Fatalf("export is %T with no rows", x1)
			}
			if !reflect.DeepEqual(x1, x8) {
				t.Errorf("export differs between -j 1 and -j 8:\n j1: %+v\n j8: %+v", x1, x8)
			}
		})
	}
	if n == 0 || len(j1.exports) != n {
		t.Errorf("%d experiments export, but the sweep exported %d", n, len(j1.exports))
	}
}

// TestDeclarationCoversAssembly: the declaration pass must predict the
// full cell set, and a second sweep on the same runner must be fully
// memoized (zero fresh cells).
func TestDeclarationCoversAssembly(t *testing.T) {
	_, j8 := sweeps(t)
	if len(j8.timings) < 100 {
		t.Errorf("declaration pass found only %d cells; the registry needs hundreds", len(j8.timings))
	}
	for _, tm := range j8.timings {
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
	_, again, err := j8.r.RunExperiments(Registry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("second sweep re-simulated %d cells; all should be memoized", len(again))
	}
}

// TestUndeclaredCellFailsTheSweep: assembly serves declared cells only.
// An experiment whose assembly requests a cell its declaration pass did
// not list (here a placeholder steers a branch) fails RunExperiments
// with an error naming the experiment and the cell, which is never
// simulated.
func TestUndeclaredCellFailsTheSweep(t *testing.T) {
	b := kernels.LL1()
	late := Experiment{Name: "late", Run: func(r *Runner) ([]Table, error) {
		st, err := r.run(b, r.config(1))
		if err != nil {
			return nil, err
		}
		if st.Cycles > 1 { // a real result: the placeholder has 1 cycle
			if _, err := r.run(b, r.config(2)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}}
	r := NewRunner(kernels.Small)
	_, timings, err := r.RunExperiments([]Experiment{late}, 2)
	if err == nil {
		t.Fatal("assembly was served a cell the declaration pass never listed")
	}
	undeclared := cellSpec{label: b.Name, cfg: r.config(2), slots: []cellSlot{{Threads: 2, Kernel: b.Name,
		Params: kernels.Params{Threads: 2, Scale: kernels.Small}}}}
	for _, want := range []string{"late: ", b.Name, cellID(undeclared)[:12], "never declared"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if len(timings) != 1 {
		t.Errorf("simulated %d cells, want only the declared one", len(timings))
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
			if _, err := r.run(kernels.GroupI()[0], cfg); err != nil {
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
