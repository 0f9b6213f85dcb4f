package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/store"
)

// sweep is a set of experiments run through experiments.Runner against
// a cell store, as sdsp-exp -store runs them.
type sweep struct {
	scale kernels.Scale
	exps  []experiments.Experiment
	jobs  int
	want  string // sha256 of the rendered tables
}

// smallSweep is the Small-scale registry minus compiler, whose
// fixed-size MiniC cells would make it a second simulation-bound
// workload.
func smallSweep(jobs int) sweep {
	var exps []experiments.Experiment
	for _, e := range experiments.Registry() {
		if e.Name != "compiler" {
			exps = append(exps, e)
		}
	}
	return sweep{kernels.Small, exps, jobs, want.SmallSweepSHA256}
}

// paperSweep is fig5 and fig6 at Paper scale: the paper-threads cells
// taken through the runner and the store.
func paperSweep(jobs int) sweep {
	var exps []experiments.Experiment
	for _, name := range []string{"fig5", "fig6"} {
		e, err := experiments.Get(name)
		if err != nil {
			panic(err) // both are fixed registry entries
		}
		exps = append(exps, e)
	}
	return sweep{kernels.Paper, exps, jobs, want.PaperSweepSHA256}
}

// sweepResult is what one sweep produced.
type sweepResult struct {
	cells     []experiments.CellTiming
	tablesSHA string
	store     *store.Store
}

// failures counts the failed cells of res: cells that errored, and every
// cell when the tables differ from the recorded ones. With fromStore,
// a cell that was simulated instead of served from the store fails too.
func (s sweep) failures(res sweepResult, fromStore bool) int {
	if res.tablesSHA != s.want {
		return max(len(res.cells), 1)
	}
	n := 0
	for _, c := range res.cells {
		if c.Err != "" || (fromStore && c.Source != "store") {
			n++
		}
	}
	return n
}

// run executes the sweep against the store at dir. Untraced, it is the
// sdsp-exp path: store.Open, then Runner.RunExperiments, then render.
// Traced, the runner's pipeline is driven step by step so each step gets
// a span under root: DeclareCells, a jobs-goroutine pool of
// ExecuteDeclared (a span per cell), then RunExperiments, which only
// assembles because every cell is memoized.
func (s sweep) run(dir string, tr *recorder, root int) (sweepResult, error) {
	var res sweepResult
	sp := tr.begin("store.open", root, -1)
	st, err := store.Open(dir, nil)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	res.store = st
	r := experiments.NewRunner(s.scale)
	r.Store = st
	r.Retries = 2 // sdsp-exp's default

	var tables [][]experiments.Table
	if tr == nil {
		tables, res.cells, err = r.RunExperiments(s.exps, s.jobs)
	} else {
		sp = tr.begin("runner.declare", root, -1)
		var decl []experiments.DeclaredCell
		decl, err = r.DeclareCells(s.exps)
		tr.end(sp)
		if err != nil {
			return res, err
		}
		sp = tr.begin("runner.execute", root, -1)
		res.cells = executeAll(r, decl, s.jobs, tr, sp)
		tr.end(sp)
		sp = tr.begin("runner.assemble", root, -1)
		tables, _, err = r.RunExperiments(s.exps, s.jobs)
		tr.end(sp)
	}
	if err != nil {
		return res, err
	}
	sp = tr.begin("render", root, -1)
	res.tablesSHA, err = hashTables(tables)
	tr.end(sp)
	return res, err
}

// executeAll runs the declared cells on a pool of jobs goroutines, one
// span per cell under parent, and returns their timings in declaration
// order.
func executeAll(r *experiments.Runner, decl []experiments.DeclaredCell, jobs int, tr *recorder, parent int) []experiments.CellTiming {
	timings := make([]experiments.CellTiming, len(decl))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sp := tr.begin("cell", parent, i)
				// A failed cell's error is also in its timing's Err.
				timings[i], _ = r.ExecuteDeclared(decl[i])
				tr.end(sp)
			}
		}()
	}
	for i := range decl {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return timings
}

// hashTables renders every table, in order, into a sha256.
func hashTables(tables [][]experiments.Table) (string, error) {
	h := sha256.New()
	for _, ts := range tables {
		for i := range ts {
			if err := ts[i].Render(h); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cycles sums the simulated cycles of the cells res delivered, whether
// simulated or served from the store.
func (res sweepResult) cycles() uint64 {
	var n uint64
	for _, c := range res.cells {
		n += c.Cycles
	}
	return n
}

// runnerMetrics reports the runner and store layers of a traced sweep
// whose spans hang under root.
func runnerMetrics(res sweepResult, tr *recorder, root, jobs int, m map[string]float64) {
	l := tr.layers(root)
	m["runner.declare_ms"] = ms(l["runner.declare"].total)
	m["runner.assemble_ms"] = ms(l["runner.assemble"].total)

	var walls []time.Duration
	var sum time.Duration
	for i, s := range tr.spans {
		if s.Name == "cell" && tr.rootOf(i) == root {
			walls = append(walls, tr.dur(i))
			sum += tr.dur(i)
		}
	}
	sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
	pct := tailPercentile(len(walls))
	m["runner.cell_p50_ms"] = ms(percentile(walls, 50))
	m["runner.cell_ptail_ms"] = ms(percentile(walls, pct))
	m["runner.cell_ptail_pct"] = float64(pct)
	m["runner.cell_samples"] = float64(len(walls))
	m["runner.parallel_eff"] = float64(sum) / (float64(tr.dur(root)) * float64(jobs))

	var sim, stored int
	for _, c := range res.cells {
		switch c.Source {
		case "sim":
			sim++
		case "store":
			stored++
		}
	}
	m["runner.cells"] = float64(len(res.cells))
	m["runner.cells_simulated"] = float64(sim)
	m["runner.cells_from_store"] = float64(stored)

	st := res.store.Stats()
	m["store.hits"] = float64(st.Hits)
	m["store.misses"] = float64(st.Misses)
	m["store.commits"] = float64(st.Commits)
	m["store.put_failures"] = float64(st.PutFailures)
	m["store.hit_frac"] = 0
	if lookups := st.Hits + st.Misses; lookups > 0 {
		m["store.hit_frac"] = float64(st.Hits) / float64(lookups)
	}
}

// tailPercentile is the highest whole percentile with at least ten of n
// samples above it (nearest rank), or 50 when n is too small for one.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n, p int) int {
	return max(1, (p*n+99)/100)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// probeStore times the store's own calls on the sweep's keys and results:
// TryLock, a Get that misses, Put and a Get that hits, each against a
// fresh store at dir. Results are read from src, untimed.
func probeStore(src *store.Store, cells []experiments.CellTiming, dir string, tr *recorder, m map[string]float64) error {
	root := tr.begin("store.probe", -1, -1)
	bytes, n, err := probeCells(src, cells, dir, tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	l := tr.layers(root)
	m["store.trylock_us"] = us(l["store.trylock"].mean())
	m["store.get_miss_us"] = us(l["store.get_miss"].mean())
	m["store.put_us"] = us(l["store.put"].mean())
	m["store.get_hit_us"] = us(l["store.get_hit"].mean())
	m["store.cell_bytes"] = float64(bytes) / float64(max(n, 1))
	return nil
}

// probeCells runs probeStore's calls under root and returns the total
// committed bytes and the number of cells probed.
func probeCells(src *store.Store, cells []experiments.CellTiming, dir string, tr *recorder, root int) (bytes, n int, err error) {
	dst, err := store.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	for i, c := range cells {
		st, ok := src.Get(c.Key)
		if !ok {
			continue
		}
		sp := tr.begin("store.trylock", root, i)
		l, err := dst.TryLock(c.Key)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		if l != nil {
			l.Unlock()
		}
		sp = tr.begin("store.get_miss", root, i)
		_, hit := dst.Get(c.Key)
		tr.end(sp)
		if hit {
			return 0, 0, fmt.Errorf("store probe: %s hit in an empty store", c.Label)
		}
		sp = tr.begin("store.put", root, i)
		err = dst.Put(c.Key, st)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("store.get_hit", root, i)
		_, hit = dst.Get(c.Key)
		tr.end(sp)
		if !hit {
			return 0, 0, fmt.Errorf("store probe: %s missed after its Put", c.Label)
		}
		raw, err := dst.CellByHash(store.HashKey(c.Key))
		if err != nil {
			return 0, 0, err
		}
		bytes += len(raw)
		n++
	}
	return bytes, n, nil
}
