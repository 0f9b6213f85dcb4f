package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// sweep is one render of a set of experiments on a fresh runner:
// exactly what sdsp-exp writes to stdout for them, with the runner,
// declared cells, tables, timings and exports behind it.
type sweep struct {
	r       *Runner
	decl    []DeclaredCell
	tables  [][]Table
	timings []CellTiming
	exports map[string]any
	out     string // every table, rendered
	digest  string // the digest of the sweep's Stats (statsDigest)
}

// runSweep runs exps on r with jobs workers and renders them.
func runSweep(t *testing.T, r *Runner, exps []Experiment, jobs int) sweep {
	t.Helper()
	s := sweep{r: r}
	var err error
	if s.decl, err = r.DeclareCells(exps); err != nil {
		t.Fatalf("DeclareCells: %v", err)
	}
	s.tables, s.timings, err = r.RunExperiments(exps, jobs)
	if err != nil {
		t.Fatalf("RunExperiments(j=%d): %v", jobs, err)
	}
	if s.exports, err = r.Exports(exps); err != nil {
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
	s.out, s.digest = buf.String(), statsDigest(t, s)
	return s
}

// statsDigest is the sha256 of every declared cell's Stats across the
// sweeps, each cell keyed by appendCellKey and taken in key order. The key
// leaves out the model digest, so the result depends neither on the
// order in which experiments declare their cells nor on the digest it
// is compared with.
func statsDigest(t *testing.T, sweeps ...sweep) string {
	t.Helper()
	stats := map[string][]byte{}
	for _, s := range sweeps {
		for _, c := range s.decl {
			res, ok := s.r.cache[c.Key]
			if !ok {
				t.Fatalf("declared cell %s (%.12s) has no result", c.Label, c.Key)
			}
			data, err := json.Marshal(res.stats)
			if err != nil {
				t.Fatal(err)
			}
			stats[string(appendCellKey(nil, c.spec))] = data
		}
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		for _, b := range [][]byte{[]byte(k), stats[k]} {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
			h.Write(b)
		}
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
		sweepJ1 = runSweep(t, NewRunner(kernels.Small), Registry(), 1)
		sweepJ8 = runSweep(t, NewRunner(kernels.Small), Registry(), 8)
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

// cellsOnly is an experiment that reads one cube of cells and builds
// nothing from them.
func cellsOnly(name string, axes ...axis) Experiment {
	return Experiment{Name: name, plan: func(*Runner) ([]*cube, build) {
		return []*cube{newCube(axes...)}, func() ([]Table, any) { return nil, nil }
	}}
}

// probe runs one cube of cells through RunExperiments: its cells are
// listed, executed on jobs workers, and filled into the returned cube.
func probe(r *Runner, jobs int, axes ...axis) (*cube, []CellTiming, error) {
	var c *cube
	e := Experiment{Name: "probe", plan: func(*Runner) ([]*cube, build) {
		c = newCube(axes...)
		return []*cube{c}, func() ([]Table, any) { return nil, nil }
	}}
	_, timings, err := r.RunExperiments([]Experiment{e}, jobs)
	return c, timings, err
}

// runaway is the axes of one cell: kernel at 2 threads with a 10-cycle
// budget, a deterministic machine error.
func runaway(kernel string) []axis {
	return []axis{along([]string{kernel}, runKernel), configs(func(c *core.Config) { c.Threads, c.MaxCycles = 2, 10 })}
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
		if _, ok := j8.exports[e.Name]; !ok {
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

// TestDeclarationCoversAssembly: the cubes list the full cell set, and
// a second sweep on the same runner must be fully memoized (zero fresh
// cells).
func TestDeclarationCoversAssembly(t *testing.T) {
	_, j8 := sweeps(t)
	if len(j8.timings) < 100 {
		t.Errorf("the cubes list only %d cells; the registry needs hundreds", len(j8.timings))
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

// TestExportsBeforeRunFails: Exports serves memoized cells only, so
// called before RunExperiments it fails, naming the experiment and a
// cell it would read, and simulates nothing.
func TestExportsBeforeRunFails(t *testing.T) {
	e, err := Get("fig3")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(kernels.Small)
	_, err = r.Exports([]Experiment{e})
	if err == nil {
		t.Fatal("Exports built rows from cells that were never run")
	}
	cells, err2 := r.DeclareCells([]Experiment{e})
	if err2 != nil || len(cells) == 0 {
		t.Fatalf("after Exports the runner lists %d cells to run (%v), want all of fig3's", len(cells), err2)
	}
	for _, want := range []string{"fig3: ", cells[0].Label, cells[0].Key[:12], "never run"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestParallelErrorDeterminism: a failing cell must surface the same
// error from the same experiment at every worker count, and must not
// suppress the other experiments' successful cells.
func TestParallelErrorDeterminism(t *testing.T) {
	failing := cellsOnly("failing", runaway(kernels.GroupI()[0].Name)...)
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
