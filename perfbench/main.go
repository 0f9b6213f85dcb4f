// Command perfbench is the repository benchmark. It drives the SDSP
// simulator only through its public packages (kernels, asm, core,
// experiments, store, cache, bpred) and prints one JSON result line.
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload paper-threads --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans around every call and reports the per-layer
// metrics. README.md describes every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
)

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 3

// env is the state one run shares across its set-up and passes.
type env struct {
	work      string // scratch directory for stores, inside the checkout
	jobs      int
	setupReps int
	warm      string   // small-warm: the store populated at set-up
	tmp       []string // directories to remove after the current pass
}

// freshDir returns a new empty directory that is removed after the pass.
func (e *env) freshDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.work, prefix)
	if err == nil {
		e.tmp = append(e.tmp, dir)
	}
	return dir, err
}

func (e *env) dropTemp() {
	for _, d := range e.tmp {
		os.RemoveAll(d)
	}
	e.tmp = nil
}

// passResult is what one timed operation did.
type passResult struct {
	attempted, failed int
	cycles            uint64 // simulated cycles of the cells delivered
	sweep             *sweepResult
	// cellWall and cellCPU time each cell of a pass that runs its cells
	// one after another (paper-threads), in a fixed order.
	cellWall, cellCPU []float64
}

// workload is one benchmark input. setup is one set-up repetition; pass
// is one timed operation, traced when tr is non-nil.
type workload struct {
	name  string
	scale kernels.Scale
	setup func(e *env) error
	pass  func(e *env, tr *recorder, root int) (passResult, error)
}

var workloads = []workload{
	{"paper-threads", kernels.Paper, func(*env) error { return warmUp() }, paperThreadsPass},
	{"small-cold", kernels.Small, func(*env) error { return warmUp() }, smallColdPass},
	{"small-warm", kernels.Small, smallWarmSetup, smallWarmPass},
}

// paperThreadsPass runs the 66 fig5/fig6 cells at Paper scale directly,
// one after another, and checks each against its recorded outcome. Each
// cell is timed on its own.
func paperThreadsPass(e *env, tr *recorder, root int) (passResult, error) {
	var pr passResult
	for i, c := range threadCells() {
		pr.attempted++
		cpu0, start := cpuTime(), time.Now()
		st, err := runDirect(c, kernels.Paper, nil, tr, root, i)
		pr.cellWall = append(pr.cellWall, time.Since(start).Seconds())
		pr.cellCPU = append(pr.cellCPU, cpuTime()-cpu0)
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			pr.failed++
		case !matchesExpected(kernels.Paper, i, st):
			fmt.Fprintf(os.Stderr, "perfbench: %v: %d cycles, %d committed differ from expected.json\n",
				c, st.Cycles, st.Committed)
			pr.failed++
		default:
			pr.cycles += st.Cycles
		}
	}
	return pr, nil
}

// smallColdPass runs the small sweep into a fresh, empty store.
func smallColdPass(e *env, tr *recorder, root int) (passResult, error) {
	dir, err := e.freshDir("cold-")
	if err != nil {
		return passResult{}, err
	}
	return sweepPass(smallSweep(e.jobs), dir, false, tr, root)
}

// smallWarmSetup warms up and then populates a store with the small
// sweep, so every pass is served from it.
func smallWarmSetup(e *env) error {
	if err := warmUp(); err != nil {
		return err
	}
	if e.warm != "" {
		os.RemoveAll(e.warm)
	}
	dir, err := os.MkdirTemp(e.work, "warm-")
	if err != nil {
		return err
	}
	e.warm = dir
	_, err = smallSweep(e.jobs).run(dir, nil, -1)
	return err
}

// smallWarmPass runs the small sweep against the populated store.
func smallWarmPass(e *env, tr *recorder, root int) (passResult, error) {
	return sweepPass(smallSweep(e.jobs), e.warm, true, tr, root)
}

// sweepPass runs s against the store at dir and checks its outcome.
func sweepPass(s sweep, dir string, fromStore bool, tr *recorder, root int) (passResult, error) {
	res, err := s.run(dir, tr, root)
	if err != nil {
		return passResult{}, err
	}
	pr := passResult{attempted: len(res.cells), failed: s.failures(res, fromStore), cycles: res.cycles(), sweep: &res}
	if pr.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d cells failed (tables sha256 %s, recorded %s)\n",
			pr.failed, pr.attempted, res.tablesSHA, s.want)
	}
	return pr, nil
}

// outcome is a finished run: the counts and the metric values by name.
type outcome struct {
	attempted, failed int
	passes            int
	metrics           map[string]float64
}

// setUp runs w's set-up e.setupReps times and returns the median time.
func setUp(w workload, e *env) (float64, error) {
	times := make([]float64, e.setupReps)
	for i := range times {
		start := time.Now()
		if err := w.setup(e); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// measure is the untraced run: set-up, then passes for at least
// seconds. wall_s and cpu_s are the median pass; for a pass of timed
// cells they are the sum of each cell's median, which a noisy host moves
// far less than the few whole-pass samples a run can take.
func measure(w workload, e *env, seconds float64) (outcome, error) {
	setup, err := setUp(w, e)
	if err != nil {
		return outcome{}, err
	}
	if err := resetPeakRSS(); err != nil {
		return outcome{}, err
	}
	out := outcome{metrics: map[string]float64{"setup_s": setup}}
	var walls, cpus []float64
	var cellWalls, cellCPUs [][]float64 // [pass][cell]
	var cycles uint64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		cpu0, start := cpuTime(), time.Now()
		pr, err := w.pass(e, nil, -1)
		wall := time.Since(start).Seconds()
		cpu := cpuTime() - cpu0
		e.dropTemp()
		if err != nil {
			return outcome{}, err
		}
		out.attempted += pr.attempted
		out.failed += pr.failed
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		cellWalls = append(cellWalls, pr.cellWall)
		cellCPUs = append(cellCPUs, pr.cellCPU)
		cycles = pr.cycles
	}
	out.passes = len(walls)
	wall, cpu := median(walls), median(cpus)
	if len(cellWalls[0]) > 0 {
		wall, cpu = sumOfMedians(cellWalls), sumOfMedians(cellCPUs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, pass walls %.4f s, wall_s %.4f, setup_s %.4f\n",
		w.name, len(walls), walls, wall, setup)
	out.metrics["wall_s"] = wall
	out.metrics["sim_cycles_per_s"] = float64(cycles) / wall
	out.metrics["cpu_s"] = cpu
	rss, err := peakRSSMB()
	if err != nil {
		return outcome{}, err
	}
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// sumOfMedians sums, over cells, each cell's median across passes.
func sumOfMedians(perPass [][]float64) float64 {
	sum := 0.0
	for c := range perPass[0] {
		xs := make([]float64, len(perPass))
		for p := range perPass {
			xs[p] = perPass[p][c]
		}
		sum += median(xs)
	}
	return sum
}

// measureTraced is the traced run. It alternates untraced and traced
// passes for at least seconds, giving the trace overhead, then measures
// the layers the passes cannot separate: the direct fig5/fig6 replays,
// the runner and store (through paperSweep on paper-threads), the
// store's own calls and the L0 components. It writes every span to
// tracePath.
func measureTraced(w workload, e *env, seconds float64, seed int64, tracePath string) (outcome, error) {
	if _, err := setUp(w, e); err != nil {
		return outcome{}, err
	}
	out := outcome{metrics: map[string]float64{}}
	m := out.metrics
	var plain, traced []float64
	var tr *recorder
	var root int
	var last passResult
	var mem0, mem1 runtime.MemStats
	// The loop ends after a traced pass and keeps that pass's scratch
	// directories: the store probe below reads its results back.
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		e.dropTemp()
		runtime.GC()
		var ptr *recorder
		proot := -1
		if i%2 == 1 {
			ptr = newRecorder()
			proot = ptr.begin("pass", -1, -1)
			runtime.ReadMemStats(&mem0)
		}
		start := time.Now()
		pr, err := w.pass(e, ptr, proot)
		wall := time.Since(start).Seconds()
		if err != nil {
			return outcome{}, err
		}
		out.attempted += pr.attempted
		out.failed += pr.failed
		if ptr == nil {
			plain = append(plain, wall)
			continue
		}
		ptr.end(proot)
		runtime.ReadMemStats(&mem1)
		traced = append(traced, wall)
		tr, root, last = ptr, proot, pr
		if !time.Now().Before(deadline) {
			break
		}
	}
	out.passes = len(plain) + len(traced)
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	m["trace.leftover_frac"] = float64(tr.selfTimes()[root]) / float64(tr.dur(root))
	m["runtime.alloc_bytes_per_cell"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(max(last.attempted, 1))
	m["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6

	a, f := replayLayers(w.scale, tr, m)
	out.attempted += a
	out.failed += f

	sw := last.sweep
	if sw == nil {
		// paper-threads bypasses the runner and the store; take its cells
		// through both once so their layers are measured at this scale.
		ps := paperSweep(e.jobs)
		dir, err := e.freshDir("paper-")
		if err != nil {
			return outcome{}, err
		}
		sroot := tr.begin("sweep.paper", -1, -1)
		res, err := ps.run(dir, tr, sroot)
		tr.end(sroot)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += len(res.cells)
		out.failed += ps.failures(res, false)
		sw, root = &res, sroot
	}
	runnerMetrics(*sw, tr, root, e.jobs, m)
	pdir, err := e.freshDir("probe-")
	if err != nil {
		return outcome{}, err
	}
	if err := probeStore(sw.store, sw.cells, pdir, tr, m); err != nil {
		return outcome{}, err
	}
	e.dropTemp()

	l0(seed, tr, m)
	m["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	if err := tr.write(tracePath); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records the facts a result depends on besides the code.
type host struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	Passes       int     `json:"passes"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Jobs         int     `json:"jobs"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	TraceFile    string  `json:"trace_file,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-threads, small-cold or small-warm")
		seed    = flag.Int64("seed", 1, "seed of the L0 component streams")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench-work", "directory for scratch stores and trace files")
		commit  = flag.String("commit", "unknown", "commit of the sources being measured")
		rec     = flag.String("record", "", "record the expected simulated outputs to this file and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir, *commit, *rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, workdir, commit, rec string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{work: work, jobs: runtime.NumCPU(), setupReps: setupReps}
	defer e.dropTemp()
	if rec != "" {
		return record(rec, e.jobs, work)
	}

	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	h := host{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: e.jobs, Commit: commit}
	var out outcome
	defs := endToEnd
	if trace == 0 {
		out, err = measure(w, e, seconds)
	} else {
		h.TraceFile = filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		out, err = measureTraced(w, e, seconds, seed, h.TraceFile)
		defs = perLayer
	}
	if err != nil {
		return err
	}
	h.Passes = out.passes
	if h.SourceSHA256, err = sourceDigest("."); err != nil {
		return err
	}
	res, err := makeResult(out, defs)
	if err != nil {
		return err
	}
	hostLine, err := json.Marshal(map[string]host{"host": h})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", hostLine, resLine)
	return nil
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown --workload %q (%s)", name, strings.Join(names, ", "))
}

// makeResult assembles the result line from out, which must hold every
// metric of defs. A value that is not a number (a ratio over nothing)
// reads 0.
func makeResult(out outcome, defs []metricDef) (result, error) {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime returns the process's user+system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS returns the heap set-up freed to the OS and restarts the
// kernel's peak-RSS counter, so peakRSSMB covers the timed passes alone.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the peak resident set since resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sourceDigest hashes the Go sources and module files under root,
// skipping hidden directories, so a result names the code it measured
// even where no commit is available.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
