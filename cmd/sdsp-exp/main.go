// sdsp-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	sdsp-exp                  # run everything at paper scale
//	sdsp-exp -exp fig3,fig4   # selected experiments
//	sdsp-exp -scale small     # quick problem sizes
//	sdsp-exp -j 8             # simulate up to 8 cells in parallel
//	sdsp-exp -json t.json     # export per-cell wall times and study rows as JSON
//	sdsp-exp -store .cells    # persist cells; resumed runs skip committed work
//	sdsp-exp -v               # per-simulation progress on stderr
//
// The table output on stdout is byte-identical for every -j value and
// for any mix of fresh and store-served cells; only the wall-clock time
// and the stderr/-json timing reports change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/prof"
)

// timingExport is the machine-readable -json payload. Exports holds
// each selected experiment's Export rows, keyed by experiment name.
type timingExport struct {
	Scale            string                   `json:"scale"`
	Jobs             int                      `json:"jobs"`
	Experiments      []string                 `json:"experiments"`
	Cells            []experiments.CellTiming `json:"cells"`
	Exports          map[string]any           `json:"exports,omitempty"`
	Store            experiments.StoreReport  `json:"store"`
	TotalWallSeconds float64                  `json:"total_wall_seconds"`
	CellWallSeconds  float64                  `json:"cell_wall_seconds"`
	SimulatedCycles  uint64                   `json:"simulated_cycles"`
	CyclesPerSecond  float64                  `json:"cycles_per_second"`
}

func main() {
	var (
		expNames = flag.String("exp", "all", "comma-separated experiment names (see -list), or 'all'")
		scale    = flag.String("scale", "paper", "problem scale: paper or small")
		list     = flag.Bool("list", false, "list experiment names and exit")
		verbose  = flag.Bool("v", false, "log each fresh simulation (with wall time) to stderr")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max cells simulated in parallel (1 = sequential)")
		jsonOut  = flag.String("json", "", "write per-cell timings and study exports as JSON to this file ('-' for stdout)")
		paranoid = flag.Bool("paranoid", false, "check machine invariants every cycle in every cell")
		fault    = flag.String("fault", "", "apply a deterministic fault schedule to every cell (preset or seed=N,miss=R,...)")
		crashDir = flag.String("crashdir", "", "write a crash-report bundle here when a cell fails with a machine error")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memprof  = flag.String("memprofile", "", "write a pprof live-heap profile to this file after the run")
		bpred    = flag.String("bpred", "2bit", "branch predictor for every cell: 2bit, gshare, gshare-pt, or tage")
		fetch    = flag.String("fetch", "", "override the fetch policy in every cell: truerr, masked, cswitch, icount, icount-fb, or confthrottle")
	)
	var sup cliflags.Supervision
	sup.Register(nil)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	// The sweep is validated in full before anything is created: Apply
	// below opens, and so creates, the -store directory.
	sw := experiments.Sweep{
		Experiments: strings.Split(*expNames, ","), Scale: *scale,
		Bpred: *bpred, Fetch: *fetch, Fault: *fault, Paranoid: *paranoid,
	}
	runner, selected, err := sw.NewRunner()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-exp: %v\n", err)
		os.Exit(2)
	}
	runner.CrashDir = *crashDir
	if *verbose {
		runner.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if err := sup.Apply(runner, *jobs, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sdsp-exp: "+format+"\n", args...)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-exp: %v\n", err)
		os.Exit(2)
	}
	defer sup.Close()

	stopProf, perr := prof.Start(*cpuprof, *memprof)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "sdsp-exp: %v\n", perr)
		os.Exit(1)
	}
	start := time.Now()
	tables, timings, err := runner.RunExperiments(selected, *jobs)
	elapsed := time.Since(start)
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(os.Stderr, "sdsp-exp: %v\n", perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-exp: %v\n", err)
		os.Exit(1)
	}
	for _, ts := range tables {
		for _, t := range ts {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "sdsp-exp:", err)
				os.Exit(1)
			}
		}
	}

	reportTimings(os.Stderr, timings, elapsed, *jobs, *verbose)
	storeRep := runner.StoreReport()
	if storeRep.Dir != "" {
		fmt.Fprintf(os.Stderr, "sdsp-exp: store %s: %d hits, %d misses, %d commits, %d repairs, %d retries, %d quarantines, %d timeouts\n",
			storeRep.Dir, storeRep.Hits, storeRep.Misses, storeRep.Commits, storeRep.Repairs,
			storeRep.Retries, storeRep.Quarantines, storeRep.Timeouts)
	}

	if *jsonOut != "" {
		exports, err := runner.Exports(selected)
		if err == nil {
			err = writeJSON(*jsonOut, *scale, *jobs, selected, exports, storeRep, timings, elapsed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdsp-exp:", err)
			os.Exit(1)
		}
	}
}

// reportTimings prints the per-cell and aggregate throughput summary.
// With -v every fresh cell gets a line; otherwise only the slowest five
// are listed (the full set is available via -json).
func reportTimings(w *os.File, timings []experiments.CellTiming, elapsed time.Duration, jobs int, verbose bool) {
	var cellWall float64
	var cycles uint64
	for _, t := range timings {
		cellWall += t.WallSeconds
		cycles += t.Cycles
	}
	byWall := append([]experiments.CellTiming(nil), timings...)
	sort.SliceStable(byWall, func(i, j int) bool { return byWall[i].WallSeconds > byWall[j].WallSeconds })
	show := byWall
	if !verbose && len(show) > 5 {
		show = show[:5]
		fmt.Fprintf(w, "sdsp-exp: slowest cells (of %d; -v or -json for all):\n", len(timings))
	} else if len(show) > 0 {
		fmt.Fprintf(w, "sdsp-exp: per-cell wall time (%d fresh cells):\n", len(timings))
	}
	for _, t := range show {
		fmt.Fprintf(w, "  %8.3fs  %-20s %.12s\n", t.WallSeconds, t.Label, t.Key)
	}
	if len(timings) == 0 {
		fmt.Fprintf(w, "sdsp-exp: no fresh cells (all memoized) in %s\n", elapsed.Round(time.Millisecond))
		return
	}
	fmt.Fprintf(w, "sdsp-exp: %d cells in %s with -j %d: %.1f cells/s, %.1fM simulated cycles/s (cell CPU %.1fs, speedup %.2fx)\n",
		len(timings), elapsed.Round(time.Millisecond), jobs,
		float64(len(timings))/elapsed.Seconds(),
		float64(cycles)/elapsed.Seconds()/1e6,
		cellWall, cellWall/elapsed.Seconds())
}

func writeJSON(path, scale string, jobs int, selected []experiments.Experiment, exports map[string]any, storeRep experiments.StoreReport, timings []experiments.CellTiming, elapsed time.Duration) error {
	var cellWall float64
	var cycles uint64
	for _, t := range timings {
		cellWall += t.WallSeconds
		cycles += t.Cycles
	}
	names := make([]string, len(selected))
	for i, e := range selected {
		names[i] = e.Name
	}
	exp := timingExport{
		Scale:            scale,
		Jobs:             jobs,
		Experiments:      names,
		Cells:            timings,
		Exports:          exports,
		Store:            storeRep,
		TotalWallSeconds: elapsed.Seconds(),
		CellWallSeconds:  cellWall,
		SimulatedCycles:  cycles,
		CyclesPerSecond:  float64(cycles) / elapsed.Seconds(),
	}
	out, err := json.MarshalIndent(&exp, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
