package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
)

// Improvements implements all four proposals of the paper's "Scope for
// improvement" section (§6.1) and measures what each buys:
//
//  1. more cache ports (and the second load unit that exploits them),
//  2. fetch-block alignment of branch targets,
//  3. a judicious fetch policy (ICount),
//  4. software scheduling of synchronization granularity (LL5 chunks).
func Improvements(r *Runner) ([]Table, error) {
	ports, err := improvementPorts(r)
	if err != nil {
		return nil, err
	}
	align, err := improvementAlignment(r)
	if err != nil {
		return nil, err
	}
	icount, err := improvementICount(r)
	if err != nil {
		return nil, err
	}
	chunk, err := improvementChunks(r)
	if err != nil {
		return nil, err
	}
	return []Table{ports, align, icount, chunk}, nil
}

// improvementPorts: with two load units, a single-ported cache caps the
// benefit; a dual-ported cache releases it (paper §6.1 #1).
func improvementPorts(r *Runner) (Table, error) {
	t := Table{
		Title:   "Improvement 1: cache ports x load units (4 threads, cycles)",
		Headers: []string{"Benchmark", "1 load, unltd ports", "2 loads, 1 port", "2 loads, 2 ports"},
	}
	for _, b := range kernels.All() {
		row := []string{b.Name}
		base := r.config(defaultThreads)
		st, err := r.run(b, base)
		if err != nil {
			return t, err
		}
		row = append(row, cycles(st))
		for _, p := range []int{1, 2} {
			cfg := r.config(defaultThreads)
			cfg.FUs = core.EnhancedFUs()
			cfg.Cache.Ports = p
			st, err := r.run(b, cfg)
			if err != nil {
				return t, err
			}
			row = append(row, cycles(st))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"The default cache is effectively multi-ported; capping it at one port shows the port bottleneck the paper warns about.")
	return t, nil
}

// improvementAlignment: .balign the hot loop heads so branch targets
// start fetch blocks (paper §6.1 #2).
func improvementAlignment(r *Runner) (Table, error) {
	t := Table{
		Title:   "Improvement 2: fetch-block alignment of branch targets (4 threads)",
		Headers: []string{"Benchmark", "Unaligned cycles", "Aligned cycles", "Block fill (unaligned)", "Block fill (aligned)"},
	}
	for _, b := range kernels.All() {
		cfg := r.config(defaultThreads)
		plain, err := r.run(b, cfg)
		if err != nil {
			return t, err
		}
		aligned, err := r.runWith(b, cfg, kernels.Params{Align: true})
		if err != nil {
			return t, err
		}
		fill := func(st *core.Stats) string {
			return fmt.Sprintf("%.2f", float64(st.FetchedInsts)/float64(st.FetchedBlocks))
		}
		t.Rows = append(t.Rows, []string{b.Name, cycles(plain), cycles(aligned),
			fill(plain), fill(aligned)})
	}
	return t, nil
}

// improvementICount: the judicious fetch policy vs True Round Robin
// (paper §6.1 #3), most visible where thread progress is uneven.
func improvementICount(r *Runner) (Table, error) {
	t := Table{
		Title:   "Improvement 3: judicious fetch (ICount) vs TrueRR (cycles)",
		Headers: []string{"Benchmark", "TrueRR 4T", "ICount 4T", "TrueRR 6T", "ICount 6T"},
	}
	for _, b := range kernels.All() {
		row := []string{b.Name}
		for _, n := range []int{4, 6} {
			for _, pol := range []core.FetchPolicy{core.TrueRR, core.ICount} {
				cfg := r.config(n)
				cfg.FetchPolicy = pol
				st, err := r.run(b, cfg)
				if err != nil {
					return t, err
				}
				row = append(row, cycles(st))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// improvementChunks: LL5's synchronization granularity (paper §6.1 #4:
// "reduce the synchronization overhead by ... dividing tasks
// judiciously").
func improvementChunks(r *Runner) (Table, error) {
	t := Table{
		Title:   "Improvement 4: LL5 synchronization granularity (cycles)",
		Headers: []string{"Chunk size", "1 thread", "2 threads", "4 threads"},
	}
	b, err := kernels.Get("LL5")
	if err != nil {
		return t, err
	}
	for _, chunk := range []int{4, 8, 16, 32, 64} {
		row := []string{fmt.Sprint(chunk)}
		for _, n := range []int{1, 2, 4} {
			st, err := r.runWith(b, r.config(n), kernels.Params{SyncChunk: chunk})
			if err != nil {
				return t, err
			}
			row = append(row, cycles(st))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Larger chunks amortize the per-chunk flag handshake but lengthen the pipeline fill; the crossover is the paper's 'judicious division'.")
	return t, nil
}

// HardwareAblations covers the remaining extension knobs: predictor
// width, BTB sharing, a real instruction cache, and store forwarding.
func HardwareAblations(r *Runner) ([]Table, error) {
	pred := Table{
		Title:   "Ablation: predictor width and BTB sharing (4 threads)",
		Headers: []string{"Benchmark", "2-bit shared", "1-bit shared", "2-bit per-thread", "accuracy 2b/1b %"},
	}
	icache := Table{
		Title:   "Ablation: perfect vs real instruction cache (4 threads, cycles)",
		Headers: []string{"Benchmark", "Perfect", "2KB I-cache", "8KB I-cache", "I-stall cycles (2KB)"},
	}
	fwd := Table{
		Title:   "Ablation: restricted load/store policy vs store forwarding (4 threads)",
		Headers: []string{"Benchmark", "Restricted", "Forwarding", "Loads forwarded"},
	}
	for _, b := range kernels.All() {
		base, err := r.run(b, r.config(defaultThreads))
		if err != nil {
			return nil, err
		}

		cfg := r.config(defaultThreads)
		cfg.PredictorBits = 1
		oneBit, err := r.run(b, cfg)
		if err != nil {
			return nil, err
		}
		cfg = r.config(defaultThreads)
		cfg.PerThreadBTB = true
		private, err := r.run(b, cfg)
		if err != nil {
			return nil, err
		}
		pred.Rows = append(pred.Rows, []string{b.Name, cycles(base), cycles(oneBit), cycles(private),
			fmt.Sprintf("%.1f/%.1f", 100*base.Branch.Accuracy(), 100*oneBit.Branch.Accuracy())})

		var icCycles [2]*core.Stats
		for i, size := range []uint32{2048, 8192} {
			cfg = r.config(defaultThreads)
			ic := cache.Config{SizeBytes: size, LineBytes: 32, Ways: 2, MissPenalty: 12}
			cfg.ICache = &ic
			st, err := r.run(b, cfg)
			if err != nil {
				return nil, err
			}
			icCycles[i] = st
		}
		icache.Rows = append(icache.Rows, []string{b.Name, cycles(base),
			cycles(icCycles[0]), cycles(icCycles[1]), fmt.Sprint(icCycles[0].ICacheStalls)})

		cfg = r.config(defaultThreads)
		cfg.StoreForwarding = true
		fw, err := r.run(b, cfg)
		if err != nil {
			return nil, err
		}
		fwd.Rows = append(fwd.Rows, []string{b.Name, cycles(base), cycles(fw),
			fmt.Sprint(fw.LoadsForwarded)})
	}
	return []Table{pred, icache, fwd}, nil
}
