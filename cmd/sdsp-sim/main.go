// sdsp-sim runs one workload (a built-in benchmark or an assembly file)
// on the cycle-level simulator and prints its statistics.
//
// Usage:
//
//	sdsp-sim -bench Matrix -threads 4
//	sdsp-sim -bench LL5 -threads 2 -fetch masked -su 64 -cache direct
//	sdsp-sim -file prog.s -threads 1 -functional
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/crash"
	"repro/internal/isa"
	"repro/internal/prof"
	"repro/sdsp"
)

func main() {
	var (
		bench      = flag.String("bench", "", "built-in benchmark name (see -list)")
		file       = flag.String("file", "", "SDSP-32 assembly file to run instead of a benchmark")
		threads    = flag.Int("threads", 4, "number of resident threads (1-6)")
		fetchFlag  = flag.String("fetch", "truerr", "fetch policy: truerr, masked, cswitch, icount, icount-fb, or confthrottle")
		bpredFlag  = flag.String("bpred", "2bit", "branch predictor: 2bit, gshare, gshare-pt, or tage")
		commit     = flag.String("commit", "flexible", "commit policy: flexible or lowest")
		su         = flag.Int("su", 32, "scheduling unit entries")
		cacheKind  = flag.String("cache", "assoc", "data cache: assoc or direct")
		enhanced   = flag.Bool("enhanced", false, "use the enhanced functional unit configuration")
		noBypass   = flag.Bool("no-bypass", false, "disable result bypassing")
		scoreboard = flag.Bool("scoreboard", false, "use 1-bit scoreboarding instead of renaming")
		paperScale = flag.Bool("paper-scale", false, "use the experiment-harness problem sizes")
		functional = flag.Bool("functional", false, "also run the functional simulator and verify memory")
		list       = flag.Bool("list", false, "list benchmark names and exit")
		forward    = flag.Bool("forward", false, "enable store-to-load forwarding (extension)")
		ports      = flag.Int("ports", 0, "data cache ports per cycle (0 = unlimited)")
		predBits   = flag.Int("pred-bits", 2, "branch predictor counter bits (1-4)")
		privateBTB = flag.Bool("private-btb", false, "per-thread BTB instead of the shared one")
		trace      = flag.Uint64("trace", 0, "print a pipeline trace for the first N cycles")
		paranoid   = flag.Bool("paranoid", false, "check machine invariants every cycle")
		coverFlag  = flag.Bool("cover", false, "record microarchitectural event coverage and print the per-event table")
		faultSpec  = flag.String("fault", "", "deterministic fault schedule: preset (light, heavy, ...) or seed=N,miss=R,wb=R,flip=R,squash=R")
		watchdog   = flag.Int64("watchdog", 0, "deadlock watchdog limit in cycles (0 = default 100000, negative = off)")
		crashDir   = flag.String("crashdir", ".", "write a crash-report bundle into this directory on a machine error ('' disables)")
		replayDir  = flag.String("replay", "", "replay a crash-report bundle directory and verify it reproduces the recorded failure")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write a pprof live-heap profile to this file after the run")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(sdsp.Workloads(), "\n"))
		return
	}

	if *replayDir != "" {
		replayBundle(*replayDir)
		return
	}

	cfg := sdsp.DefaultConfig(*threads)
	pol, perr := sdsp.ParseFetchPolicy(*fetchFlag)
	if perr != nil {
		fatal("%v", perr)
	}
	cfg.FetchPolicy = pol
	pred, perr := sdsp.ParsePredictor(*bpredFlag)
	if perr != nil {
		fatal("%v", perr)
	}
	cfg.Predictor = pred
	switch *commit {
	case "flexible":
	case "lowest":
		cfg.CommitPolicy = sdsp.LowestOnly
		cfg.CommitWindow = 1
	default:
		fatal("unknown commit policy %q", *commit)
	}
	cfg.SUEntries = *su
	if *cacheKind == "direct" {
		cfg.Cache.Ways = 1
	} else if *cacheKind != "assoc" {
		fatal("unknown cache kind %q", *cacheKind)
	}
	if *enhanced {
		cfg.FUs = sdsp.EnhancedFUs()
	}
	cfg.Bypassing = !*noBypass
	cfg.Renaming = !*scoreboard
	cfg.StoreForwarding = *forward
	cfg.Cache.Ports = *ports
	cfg.PredictorBits = *predBits
	cfg.PerThreadBTB = *privateBTB
	cfg.CheckInvariants = *paranoid
	if *watchdog < 0 {
		cfg.Watchdog = sdsp.NoWatchdog
	} else {
		cfg.Watchdog = uint64(*watchdog)
	}
	inj, ferr := sdsp.ParseFaultSpec(*faultSpec)
	if ferr != nil {
		fatal("%v", ferr)
	}
	cfg.Injector = inj
	if *coverFlag {
		cfg.Coverage = cover.NewSet()
	}

	var obj *sdsp.Object
	var err error
	name := *bench
	switch {
	case *bench != "" && *file != "":
		fatal("-bench and -file are mutually exclusive")
	case *bench != "":
		obj, err = sdsp.Workload(*bench, sdsp.WorkloadParams{Threads: *threads, PaperScale: *paperScale})
	case *file != "":
		var src []byte
		src, err = os.ReadFile(*file)
		if err == nil {
			obj, err = sdsp.Assemble(string(src))
		}
		name = *file
	default:
		fatal("one of -bench or -file is required (try -list)")
	}
	if err != nil {
		fatal("%v", err)
	}

	m, err := sdsp.NewMachine(obj, cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *trace > 0 {
		m.Observe(sdsp.Trace(os.Stdout, *trace))
	}
	stopProf, perr := prof.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fatal("%v", perr)
	}
	st, err := m.Run()
	if perr := stopProf(); perr != nil {
		fatal("%v", perr)
	}
	if err != nil {
		var me *core.MachineError
		if *crashDir != "" && errors.As(err, &me) {
			bundle := crash.New(name, obj, cfg, me)
			dir := filepath.Join(*crashDir, bundle.DirName(""))
			if final, replay, werr := bundle.Write(dir); werr == nil {
				fmt.Fprintf(os.Stderr, "sdsp-sim: crash bundle: %s\nsdsp-sim: reproduce with: %s\n", final, replay)
			} else {
				fmt.Fprintf(os.Stderr, "sdsp-sim: crash bundle not written: %v\n", werr)
			}
		}
		fatal("%v", err)
	}

	if *bench != "" {
		p := sdsp.WorkloadParams{Threads: *threads, PaperScale: *paperScale}
		if err := sdsp.CheckWorkload(*bench, m, obj, p); err != nil {
			fatal("result validation failed: %v", err)
		}
	}
	if *functional {
		if err := sdsp.Verify(obj, cfg); err != nil {
			fatal("%v", err)
		}
		fmt.Println("functional verification: OK")
	}

	printStats(os.Stdout, name, cfg, st)
	if st.Coverage != nil {
		fmt.Println()
		fmt.Println("microarchitectural event coverage:")
		if err := st.Coverage.WriteTable(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}
}

// replayBundle reproduces a crash-report bundle: rebuild the machine
// from the bundle's object, config, and fault spec, run it, and verify
// the failure matches (kind, cycle, thread, PC). Exits non-zero on any
// divergence, so CI can assert reproducibility.
func replayBundle(dir string) {
	b, err := crash.Read(dir)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("replaying %s (%s)\n", dir, b.Workload)
	fmt.Printf("recorded:   %s\n", b.Err.Summary())
	got, err := b.Replay()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("reproduced: %s\n", got.Summary())
	if !crash.SameFailure(got, b.Err) {
		fatal("replay DIVERGED from the recorded failure")
	}
	fmt.Println("replay: identical failure (kind, cycle, thread, pc)")
}

// printStats renders the run summary. Every map-derived line (the
// fault-channel breakdown) iterates a sorted name list, never the map
// itself, so repeated runs render byte-identically.
func printStats(out io.Writer, name string, cfg core.Config, st *core.Stats) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintf(w, "workload\t%s\n", name)
	fmt.Fprintf(w, "threads\t%d\tfetch policy\t%v\n", cfg.Threads, cfg.FetchPolicy)
	fmt.Fprintf(w, "predictor\t%v\n", cfg.Predictor)
	fmt.Fprintf(w, "cycles\t%d\tIPC\t%.3f\n", st.Cycles, st.IPC())
	fmt.Fprintf(w, "committed\t%d\tsquashed\t%d\n", st.Committed, st.Squashed)
	fmt.Fprintf(w, "mispredicts\t%d\tprediction accuracy\t%.1f%%\n",
		st.Mispredicts, 100*st.Branch.Accuracy())
	fmt.Fprintf(w, "prediction confidence\t%.1f%%\n", 100*st.Branch.Confidence())
	if st.FetchThrottled > 0 {
		fmt.Fprintf(w, "fetch throttled cycles\t%d\n", st.FetchThrottled)
	}
	fmt.Fprintf(w, "cache accesses\t%d\thit rate\t%.1f%%\n",
		st.Cache.Hits+st.Cache.Misses, 100*st.Cache.HitRate())
	fmt.Fprintf(w, "SU stalls\t%d\tavg SU occupancy\t%.1f\n", st.SUStalls, st.AvgSUOccupancy())
	fmt.Fprintf(w, "fetch idle cycles\t%d\tdispatch stalls\t%d\n", st.FetchIdle, st.DispatchStall)
	fmt.Fprintf(w, "load blocked\t%d\tstore buffer full\t%d\n", st.LoadBlocked, st.StoreBufferFull)
	if cfg.Injector != nil {
		fmt.Fprintf(w, "fault schedule\t%s\n", cfg.Injector)
		fmt.Fprintf(w, "injected faults\t%d\n", st.Faults.Total())
		for _, ch := range core.FaultChannels() {
			if n := st.Faults[ch]; n > 0 {
				fmt.Fprintf(w, "  %s\t%d\n", ch, n)
			}
		}
	}
	for t, c := range st.CommittedByThread {
		fmt.Fprintf(w, "thread %d committed\t%d\n", t, c)
	}
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		var cells []string
		for u := range st.FUUsage[cl] {
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*st.FUUtilization(cl, u)))
		}
		fmt.Fprintf(w, "%v utilization\t%s\n", cl, strings.Join(cells, " "))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdsp-sim: "+format+"\n", args...)
	os.Exit(1)
}
