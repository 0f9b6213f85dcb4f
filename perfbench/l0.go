package main

import (
	"math/rand"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
)

// Component (L0) microbenchmarks: the data cache and the branch
// predictors, timed on streams generated from the run's seed.

const (
	l0Segments   = 256 // address-stream segments, alternating working sets
	l0SegmentLen = 512 // probes per segment
	l0Blocks     = 1 << 16
	l0Passes     = 8 // timed passes over each stream
	l0MemBytes   = 256 << 10
)

// addrStream returns seeded word addresses in segments that alternate
// between a 4 KB working set, which fits the default 8 KB L1, and a
// 32 KB one, which does not. Each segment walks its set at random or at
// a seeded stride. batches are the per-cycle request counts, 1 to 4.
func addrStream(rng *rand.Rand) (addrs []uint32, batches []int) {
	for s := 0; s < l0Segments; s++ {
		ws := uint32(4 << 10)
		if s%2 == 1 {
			ws = 32 << 10
		}
		base := uint32(rng.Intn(l0MemBytes/(32<<10))) * (32 << 10)
		stride := uint32(0)
		if rng.Intn(2) == 0 {
			stride = 4 * uint32(1+rng.Intn(16))
		}
		off := uint32(rng.Intn(int(ws/4))) * 4
		for i := 0; i < l0SegmentLen; i++ {
			if stride == 0 {
				off = uint32(rng.Intn(int(ws/4))) * 4
			} else {
				off = (off + stride) % ws
			}
			addrs = append(addrs, base+off)
		}
	}
	for len(batches) < len(addrs) {
		batches = append(batches, 1+rng.Intn(4))
	}
	return addrs, batches
}

// timeReadMany replays addrs through a cache built from cfg, one
// Tick + ReadMany per simulated cycle as the core issues them, and
// returns the host ns per probe.
func timeReadMany(name string, cfg cache.Config, addrs []uint32, batches []int, tr *recorder) float64 {
	c := cache.New(cfg, mem.New(l0MemBytes))
	reqs := make([]cache.ReadReq, 4)
	var now uint64
	sp := tr.begin(name, -1, -1)
	for pass := 0; pass < l0Passes; pass++ {
		for i, b := 0, 0; i < len(addrs); b++ {
			now++
			c.Tick(now)
			k := min(batches[b], len(addrs)-i)
			for j := 0; j < k; j++ {
				reqs[j] = cache.ReadReq{Addr: addrs[i+j], Count: true}
			}
			c.ReadMany(now, reqs[:k])
			i += k
		}
	}
	tr.end(sp)
	probes := l0Passes * len(addrs)
	tr.count(name+"/probes", uint64(probes))
	return float64(tr.dur(sp)) / float64(probes)
}

// fetchBlock is one dynamic fetch block of the branch stream: four
// consecutive PCs of one thread, at most one of them a branch.
type fetchBlock struct {
	thread int
	pcs    [4]uint32
	branch int // slot of the branch, or -1
	taken  bool
	target uint32
}

// branchStream returns seeded fetch blocks of four threads walking a
// 16 KB synthetic program. Each static branch has a seeded target and
// behaviour: always, never, mostly taken, mostly not taken, or a loop
// branch taken period-1 times out of period.
func branchStream(rng *rand.Rand) []fetchBlock {
	const nStatic, codeBase = 1024, 0x1000
	type static struct {
		slot   int
		target int
		kind   int // 0 always, 1 never, 2 mostly taken, 3 mostly not, 4 loop
		period int
		seen   int
	}
	code := make([]static, nStatic)
	for i := range code {
		code[i] = static{slot: rng.Intn(5) - 1, target: rng.Intn(nStatic), kind: rng.Intn(5), period: 2 + rng.Intn(14)}
	}
	var cur [4]int
	blocks := make([]fetchBlock, l0Blocks)
	for i := range blocks {
		t := i % 4
		s := &code[cur[t]]
		b := fetchBlock{thread: t, branch: s.slot}
		for k := range b.pcs {
			b.pcs[k] = uint32(codeBase + cur[t]*16 + k*4)
		}
		if s.slot >= 0 {
			s.seen++
			switch s.kind {
			case 0:
				b.taken = true
			case 2:
				b.taken = rng.Intn(10) != 0
			case 3:
				b.taken = rng.Intn(10) == 0
			case 4:
				b.taken = s.seen%s.period != 0
			}
			b.target = uint32(codeBase + s.target*16)
		}
		blocks[i] = b
		if b.taken {
			cur[t] = s.target
		} else {
			cur[t] = (cur[t] + 1) % nStatic
		}
	}
	return blocks
}

// timeLookupBlock trains p once over blocks, updating at each branch as
// the core does at commit (untimed), then times LookupBlock over the
// stream and returns the host ns per call.
func timeLookupBlock(name string, p bpred.Predictor, blocks []fetchBlock, tr *recorder) float64 {
	out := make([]bpred.BlockPred, 4)
	for _, b := range blocks {
		n := p.LookupBlock(b.thread, b.pcs[:], out)
		if b.branch >= 0 && b.branch < n {
			pred := out[b.branch]
			correct := pred.Taken == b.taken && (!b.taken || pred.Target == b.target)
			p.Update(b.thread, b.pcs[b.branch], b.taken, b.target, correct)
		}
	}
	sp := tr.begin(name, -1, -1)
	for pass := 0; pass < l0Passes; pass++ {
		for i := range blocks {
			p.LookupBlock(blocks[i].thread, blocks[i].pcs[:], out)
		}
	}
	tr.end(sp)
	calls := l0Passes * len(blocks)
	tr.count(name+"/calls", uint64(calls))
	return float64(tr.dur(sp)) / float64(calls)
}

// l0 runs every component microbenchmark on streams drawn from seed.
func l0(seed int64, tr *recorder, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	addrs, batches := addrStream(rng)
	hier := cache.DefaultConfig()
	hier.L2 = cache.DefaultL2()
	hier.VictimEntries = 8
	hier.Prefetch = true
	m["cache.readmany_ns_per_probe"] = timeReadMany("cache.readmany", cache.DefaultConfig(), addrs, batches, tr)
	m["cache.readmany_hier_ns_per_probe"] = timeReadMany("cache.readmany_hier", hier, addrs, batches, tr)

	blocks := branchStream(rng)
	const btb, threads = 512, 4 // the default BTB and thread count
	for _, p := range []struct {
		name string
		p    bpred.Predictor
	}{
		{"2bit", bpred.New(btb)},
		{"gshare", bpred.NewGshare(btb, threads, false)},
		{"gshare-pt", bpred.NewGshare(btb, threads, true)},
		{"tage", bpred.NewTAGE(btb)},
	} {
		m["bpred.lookupblock_ns."+p.name] = timeLookupBlock("bpred.lookupblock."+p.name, p.p, blocks, tr)
	}
}
