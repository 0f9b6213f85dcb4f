package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
)

// improvements implements all four proposals of the paper's "Scope for
// improvement" section (§6.1) and measures what each buys. The first
// three are grids, which it exports; the fourth's rows are LL5 chunk
// sizes.
func improvements(r *Runner) ([]*cube, build) {
	cubes, rows := improvementGrids.plan(r)
	chunks := newCube(along([]string{"LL5"}, runKernel),
		along(syncChunks, func(c *cellSpec, chunk int) { c.slots[0].Params.SyncChunk = chunk }),
		along(chunkThreads, setThreads))
	return append(cubes, chunks), func() ([]Table, any) {
		x := rows()
		return append(improvementGrids.tables(x), chunkTable(chunks)), x
	}
}

var improvementGrids = grids{{
	// More cache ports, and the second load unit that exploits them.
	title:   "Improvement 1: cache ports x load units (4 threads, cycles)",
	kernels: kernels.All,
	cols: []column{
		{header: "1 load, unltd ports", threads: defaultThreads},
		{header: "2 loads, 1 port", threads: defaultThreads, set: func(c *core.Config) { c.FUs, c.Cache.Ports = core.EnhancedFUs(), 1 }},
		{header: "2 loads, 2 ports", threads: defaultThreads, set: func(c *core.Config) { c.FUs, c.Cache.Ports = core.EnhancedFUs(), 2 }},
	},
	notes: []string{"The default cache is effectively multi-ported; capping it at one port shows the port bottleneck the paper warns about."},
}, {
	// .balign the hot loop heads so branch targets start fetch blocks.
	title:   "Improvement 2: fetch-block alignment of branch targets (4 threads)",
	kernels: kernels.All,
	cols: []column{
		{header: "Unaligned cycles", threads: defaultThreads},
		{header: "Aligned cycles", threads: defaultThreads, params: kernels.Params{Align: true}},
		view("Block fill (unaligned)", 0, fetchFill),
		view("Block fill (aligned)", 1, fetchFill),
	},
}, {
	// A judicious fetch policy vs True Round Robin.
	title:   "Improvement 3: judicious fetch (ICount) vs TrueRR (cycles)",
	kernels: kernels.All,
	cols: []column{
		{header: "TrueRR 4T", threads: 4, set: fetchPolicy(core.TrueRR)},
		{header: "ICount 4T", threads: 4, set: fetchPolicy(core.ICount)},
		{header: "TrueRR 6T", threads: 6, set: fetchPolicy(core.TrueRR)},
		{header: "ICount 6T", threads: 6, set: fetchPolicy(core.ICount)},
	},
}}

// syncChunks and chunkThreads are LL5's synchronization granularity
// (paper §6.1 #4: "reduce the synchronization overhead by ... dividing
// tasks judiciously") and the thread counts it is measured at.
var (
	syncChunks   = []int{4, 8, 16, 32, 64}
	chunkThreads = []int{1, 2, 4}
)

// chunkTable renders Improvement 4 from its cube: LL5 × chunk size ×
// threads.
func chunkTable(c *cube) Table {
	t := Table{
		Title:   "Improvement 4: LL5 synchronization granularity (cycles)",
		Headers: []string{"Chunk size", "1 thread", "2 threads", "4 threads"},
	}
	for i, chunk := range syncChunks {
		row := []string{fmt.Sprint(chunk)}
		for n := range chunkThreads {
			row = append(row, cycles(c.at(0, i, n)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Larger chunks amortize the per-chunk flag handshake but lengthen the pipeline fill; the crossover is the paper's 'judicious division'.")
	return t
}

// hardwareGrids cover the remaining extension knobs: predictor width,
// BTB sharing, a real instruction cache, and store forwarding.
var hardwareGrids = grids{{
	title:   "Ablation: predictor width and BTB sharing (4 threads)",
	kernels: kernels.All,
	cols: []column{
		{header: "2-bit shared", threads: defaultThreads},
		{header: "1-bit shared", threads: defaultThreads, set: func(c *core.Config) { c.PredictorBits = 1 }},
		{header: "2-bit per-thread", threads: defaultThreads, set: func(c *core.Config) { c.PerThreadBTB = true }},
		view("accuracy 2b/1b %", 1, accuracyVsFirst),
	},
}, {
	title:   "Ablation: perfect vs real instruction cache (4 threads, cycles)",
	kernels: kernels.All,
	cols: []column{
		{header: "Perfect", threads: defaultThreads},
		{header: "2KB I-cache", threads: defaultThreads, set: func(c *core.Config) {
			c.ICache = &cache.Config{SizeBytes: 2048, LineBytes: 32, Ways: 2, MissPenalty: 12}
		}},
		{header: "8KB I-cache", threads: defaultThreads, set: func(c *core.Config) {
			c.ICache = &cache.Config{SizeBytes: 8192, LineBytes: 32, Ways: 2, MissPenalty: 12}
		}},
		view("I-stall cycles (2KB)", 1, iStalls),
	},
}, {
	title:   "Ablation: restricted load/store policy vs store forwarding (4 threads)",
	kernels: kernels.All,
	cols: []column{
		{header: "Restricted", threads: defaultThreads},
		{header: "Forwarding", threads: defaultThreads, set: func(c *core.Config) { c.StoreForwarding = true }},
		view("Loads forwarded", 1, forwarded),
	},
}}
