package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
)

// The mixstudy opens the dimension the paper's homogeneous-multitasking
// model fixes: several *different* programs resident at once, each in
// its own 2 MiB memory window with an independent thread group and
// register budget, competing for the shared frontend, scheduling unit,
// functional units, and memory hierarchy. Pairings of unlike kernels run
// across thread counts and hierarchy configurations (L1 only, +L2,
// +L2+victim+prefetch), reporting per-slot IPC, interference slowdown
// against solo runs of the same program at the same group size and
// hierarchy, and the L1/L2/victim/prefetch hit breakdown. Every mixed
// cell is validated against the functional reference over the full
// stacked memory, so cross-slot leakage fails the sweep rather than
// skewing a table. See docs/MEMORY.md.

// MixCell is one mixstudy grid cell, mixstudy's export.
type MixCell struct {
	Pairing      string    `json:"pairing"`
	Threads      int       `json:"threads"`
	Hierarchy    string    `json:"hierarchy"`
	Cycles       uint64    `json:"cycles"`
	IPC          float64   `json:"ipc"`
	SlotNames    []string  `json:"slot_names"`
	SlotThreads  []int     `json:"slot_threads"`
	SlotIPC      []float64 `json:"slot_ipc"`
	SlotFinish   []uint64  `json:"slot_finish_cycles"`
	SlotSolo     []uint64  `json:"slot_solo_cycles"`
	SlotSlowdown []float64 `json:"slot_slowdown"`
	L1HitRate    float64   `json:"l1_hit_rate"`
	L2HitRate    float64   `json:"l2_hit_rate"` // 1 when L2Accesses is 0
	L2Accesses   uint64    `json:"l2_accesses"`
	VictimHits   uint64    `json:"victim_hits"`
	PrefetchHits uint64    `json:"prefetch_hits"`
}

// hierVariant is one memory-hierarchy configuration of the sweep. The
// baseline variant leaves the paper's 8 KB L1 alone, so its cells reuse
// the exact timing of every other experiment.
type hierVariant struct {
	name  string
	apply func(c *cache.Config)
}

func hierVariants() []hierVariant {
	return []hierVariant{
		{"l1", func(c *cache.Config) {}},
		{"l1+l2", func(c *cache.Config) { c.L2 = cache.DefaultL2() }},
		{"l1+l2+vb+pf", func(c *cache.Config) {
			c.L2 = cache.DefaultL2()
			c.VictimEntries = 8
			c.Prefetch = true
		}},
	}
}

// mixProgram is one side of a pairing: its name in the tables and the
// slot that runs it (Threads, and a kernel's Params, are set per cell).
type mixProgram struct {
	name string
	slot cellSlot
}

// kernelProgram wraps a paper kernel as a mix partner.
func kernelProgram(name string) mixProgram {
	return mixProgram{name, cellSlot{Kernel: name}}
}

// minicProgram wraps a MiniC-compiled program with a lean register
// budget as a mix partner. The sources are the compiler study's.
func minicProgram(name, src string, regs int) mixProgram {
	return mixProgram{name, cellSlot{MiniC: src, Regs: regs}}
}

// progenProgram wraps a deterministic generated stress program as a mix
// partner; seed picks the program, and its 21-register budget covers
// the generator's r0–r20.
func progenProgram(seed int64) mixProgram {
	return mixProgram{fmt.Sprintf("progen%d", seed), cellSlot{Seed: seed, Regs: 21}}
}

// alone makes c run p by itself on a k-thread group: the interference
// baseline. A kernel's solo is the same cell as its runs in the paper
// figures, and a MiniC solo is labelled as the compiler study labels it.
func (p mixProgram) alone(c *cellSpec, k int) {
	c.label, c.cfg.Threads, c.slots = p.name, k, []cellSlot{p.slot}
	if p.slot.Kernel == "" {
		c.cfg.MaxCycles = nonKernelMaxCycles
	}
	if p.slot.MiniC != "" {
		c.label = "minic/" + p.name
	}
}

// mixPairing is one row family of the study: two unlike programs and how
// the total thread count splits between them (first slot gets the
// remainder).
type mixPairing struct {
	name string
	a, b mixProgram
}

func (p *mixPairing) split(total int) (ka, kb int) {
	kb = total / 2
	return total - kb, kb
}

// roles is the last axis of p's cube, which splits the cell's thread
// count: both programs resident, then each alone on its share.
func (p *mixPairing) roles() axis {
	return axis{
		func(c *cellSpec) {
			c.label, c.cfg.MaxCycles, c.slots = "mix/"+p.name, nonKernelMaxCycles, []cellSlot{p.a.slot, p.b.slot}
			c.slots[0].Threads, c.slots[1].Threads = p.split(c.cfg.Threads)
		},
		func(c *cellSpec) { ka, _ := p.split(c.cfg.Threads); p.a.alone(c, ka) },
		func(c *cellSpec) { _, kb := p.split(c.cfg.Threads); p.b.alone(c, kb) },
	}
}

// mixPlan scopes the study to the problem scale: the small/CI plan runs
// two pairings at two thread counts; paper scale adds the all-MiniC and
// progen-stress pairings and the six-thread point.
type mixPlan struct {
	pairings []mixPairing
	threads  []int
}

func mixPlanFor(scale kernels.Scale) mixPlan {
	pairings := []mixPairing{
		{"LL1+Sieve", kernelProgram("LL1"), kernelProgram("Sieve")},
		{"Matrix+lean", kernelProgram("Matrix"), minicProgram("Inner product", dotC, 12)},
	}
	threads := []int{2, defaultThreads}
	if scale == kernels.Paper {
		pairings = append(pairings,
			mixPairing{"MatC+DotC", minicProgram("Matrix", matrixC, 16), minicProgram("Inner product", dotC, 12)},
			mixPairing{"LL5+progen", kernelProgram("LL5"), progenProgram(1996)},
		)
		threads = []int{2, defaultThreads, 6}
	}
	return mixPlan{pairings: pairings, threads: threads}
}

// hierarchies is the axis of memory-hierarchy variants.
func hierarchies() axis {
	return along(hierVariants(), func(c *cellSpec, h hierVariant) { h.apply(&c.cfg.Cache) })
}

// slotAggregates reduces per-thread stats to per-slot committed counts
// and finish times (the max HALT cycle over the slot's thread group).
func slotAggregates(st *core.Stats, ka, kb int) (committed [2]uint64, finish [2]uint64) {
	for t := 0; t < ka+kb; t++ {
		slot := 0
		if t >= ka {
			slot = 1
		}
		if t < len(st.CommittedByThread) {
			committed[slot] += st.CommittedByThread[t]
		}
		if t < len(st.HaltCycleByThread) && st.HaltCycleByThread[t] > finish[slot] {
			finish[slot] = st.HaltCycleByThread[t]
		}
	}
	return committed, finish
}

// mixStudy has a cube per pairing: threads × hierarchy × role. Its rows
// are one per mixed cell, with the solo baselines of its two slots, and
// it renders them as three tables.
func mixStudy(r *Runner) ([]*cube, build) {
	plan := mixPlanFor(r.Scale)
	cubes := make([]*cube, len(plan.pairings))
	for i := range plan.pairings {
		cubes[i] = newCube(along(plan.threads, setThreads), hierarchies(), plan.pairings[i].roles())
	}
	return cubes, func() ([]Table, any) {
		var cells []MixCell
		for i, p := range plan.pairings {
			for t, total := range plan.threads {
				for h, hier := range hierVariants() {
					ka, kb := p.split(total)
					st, soloA, soloB := cubes[i].at(t, h, 0), cubes[i].at(t, h, 1), cubes[i].at(t, h, 2)
					committed, finish := slotAggregates(st, ka, kb)
					cyc := float64(max(st.Cycles, 1))
					cells = append(cells, MixCell{
						Pairing: p.name, Threads: total, Hierarchy: hier.name,
						Cycles: st.Cycles, IPC: st.IPC(),
						SlotNames:   []string{p.a.name, p.b.name},
						SlotThreads: []int{ka, kb},
						SlotIPC:     []float64{float64(committed[0]) / cyc, float64(committed[1]) / cyc},
						SlotFinish:  []uint64{finish[0], finish[1]},
						SlotSolo:    []uint64{soloA.Cycles, soloB.Cycles},
						SlotSlowdown: []float64{
							slowdownRatio(finish[0], soloA.Cycles),
							slowdownRatio(finish[1], soloB.Cycles),
						},
						L1HitRate: st.Cache.HitRate(), L2HitRate: st.Cache.L2HitRate(),
						L2Accesses: st.Cache.L2Hits + st.Cache.L2Misses,
						VictimHits: st.Cache.VictimHits, PrefetchHits: st.Cache.PrefetchHits,
					})
				}
			}
		}
		return mixTables(cells), cells
	}
}

// mixTables renders the rows as three tables, a row per mixed cell.
func mixTables(cells []MixCell) []Table {
	ipcTab := Table{
		Title:   "Mixstudy: per-slot IPC under multiprogramming",
		Headers: []string{"Pairing", "Threads", "Hierarchy", "IPC A", "IPC B", "IPC total"},
	}
	slowTab := Table{
		Title:   "Mixstudy: interference slowdown vs solo (finish cycles / solo cycles)",
		Headers: []string{"Pairing", "Threads", "Hierarchy", "Slot A", "Slot B"},
	}
	hitTab := Table{
		Title:   "Mixstudy: memory hierarchy hit breakdown (mixed runs)",
		Headers: []string{"Pairing", "Threads", "Hierarchy", "L1 hit %", "L2 hit %", "Victim hits", "Prefetch hits"},
	}
	for _, c := range cells {
		label := fmt.Sprintf("%d+%d", c.SlotThreads[0], c.SlotThreads[1])
		ipcTab.Rows = append(ipcTab.Rows, []string{
			c.Pairing, label, c.Hierarchy,
			fmt.Sprintf("%.3f", c.SlotIPC[0]), fmt.Sprintf("%.3f", c.SlotIPC[1]),
			fmt.Sprintf("%.3f", c.IPC),
		})
		slowTab.Rows = append(slowTab.Rows, []string{
			c.Pairing, label, c.Hierarchy, slowdown(c.SlotSlowdown[0]), slowdown(c.SlotSlowdown[1]),
		})
		l2Col := "—"
		if c.L2Accesses > 0 {
			l2Col = fmt.Sprintf("%.1f", 100*c.L2HitRate)
		}
		hitTab.Rows = append(hitTab.Rows, []string{
			c.Pairing, label, c.Hierarchy,
			fmt.Sprintf("%.1f", 100*c.L1HitRate),
			l2Col,
			fmt.Sprint(c.VictimHits),
			fmt.Sprint(c.PrefetchHits),
		})
	}

	ipcTab.Notes = append(ipcTab.Notes,
		"per-slot IPC is the slot group's committed instructions over total mixed cycles")
	slowTab.Notes = append(slowTab.Notes,
		"slot finish time is the last HALT commit of its thread group; solo runs use the same group size and hierarchy")
	hitTab.Notes = append(hitTab.Notes,
		"the l1 variant leaves the paper's 8 KB L1 alone: L2/victim/prefetch columns are structurally zero there")
	return []Table{ipcTab, slowTab, hitTab}
}

// slowdown renders a mixed-vs-solo finish-time ratio, or a dash when a
// slot is empty (the degenerate single-program mix).
func slowdown(ratio float64) string {
	if ratio == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fx", ratio)
}

// slowdownRatio is a slot's mixed finish time over its solo run, or 0
// when either is empty.
func slowdownRatio(finish, solo uint64) float64 {
	if finish == 0 || solo == 0 {
		return 0
	}
	return float64(finish) / float64(solo)
}
