package experiments

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/kernels"
	"repro/internal/loader"
	"repro/internal/minic"
	"repro/internal/progen"
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

// MixCell is one mixstudy grid cell, exported by sdsp-exp -json.
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
	L2HitRate    float64   `json:"l2_hit_rate"`
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

// mixProgram is one side of a pairing: it can build its object for a
// k-thread slot group and run its solo baseline as an ordinary runner
// cell (shared and cached like any other).
type mixProgram struct {
	name  string
	regs  int // explicit per-thread budget for the mix slot; 0 = equal share
	build func(r *Runner, k int) (*loader.Object, error)
	solo  func(r *Runner, k int, hier hierVariant) (*core.Stats, error)
}

// kernelProgram wraps a paper kernel as a mix partner.
func kernelProgram(name string) mixProgram {
	return mixProgram{
		name: name,
		build: func(r *Runner, k int) (*loader.Object, error) {
			b, err := kernels.Get(name)
			if err != nil {
				return nil, err
			}
			return b.Build(kernels.Params{Threads: k, Scale: r.Scale})
		},
		solo: func(r *Runner, k int, hier hierVariant) (*core.Stats, error) {
			b, err := kernels.Get(name)
			if err != nil {
				return nil, err
			}
			cfg := r.config(k)
			hier.apply(&cfg.Cache)
			return r.Run(b, cfg)
		},
	}
}

// minicProgram wraps a MiniC-compiled program with a lean register
// budget as a mix partner. The sources are the compiler study's.
func minicProgram(name, src string, regs int) mixProgram {
	return mixProgram{
		name: name,
		regs: regs,
		build: func(r *Runner, k int) (*loader.Object, error) {
			return minic.CompileToObject(src, minic.Options{Regs: regs})
		},
		solo: func(r *Runner, k int, hier hierVariant) (*core.Stats, error) {
			return r.runMiniCHier(name, src, k, regs, hier)
		},
	}
}

// progenProgram wraps a deterministic generated stress program as a mix
// partner; seed picks the program, regs bounds its register usage (the
// generator stays at or below r20).
func progenProgram(seed int64) mixProgram {
	name := fmt.Sprintf("progen%d", seed)
	build := func(r *Runner, k int) (*loader.Object, error) {
		return asm.Assemble(progen.New(seed).Source)
	}
	return mixProgram{
		name:  name,
		regs:  21,
		build: build,
		solo: func(r *Runner, k int, hier hierVariant) (*core.Stats, error) {
			return r.runMixSolo(name, build, k, hier)
		},
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

// runMiniCHier is runMiniC with a hierarchy variant applied (and folded
// into the cell key); the baseline variant shares the compiler study's
// exact cells.
func (r *Runner) runMiniCHier(name, src string, threads, regs int, hier hierVariant) (*core.Stats, error) {
	if hier.name == "l1" {
		return r.runMiniC(name, src, threads, regs)
	}
	cfg := core.DefaultConfig()
	cfg.Threads = threads
	cfg.MaxCycles = 100_000_000
	hier.apply(&cfg.Cache)
	key := fmt.Sprintf("minic/%s/t%d/r%d/%s", name, threads, regs, hier.name)
	run := func() (*core.Stats, error) {
		obj, err := minic.CompileToObject(src, minic.Options{Regs: regs})
		if err != nil {
			return nil, err
		}
		m, err := core.New(obj, cfg)
		if err != nil {
			return nil, err
		}
		st, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("minic %s (threads=%d regs=%d %s): %w", name, threads, regs, hier.name, err)
		}
		return st, nil
	}
	return r.runCell(key, "minic/"+name, func() *core.Stats { return placeholderStats(cfg) }, run)
}

// runMixSolo runs a mix partner's program alone at its group size — the
// interference baseline for programs that are not kernels or MiniC.
func (r *Runner) runMixSolo(name string, build func(r *Runner, k int) (*loader.Object, error), k int, hier hierVariant) (*core.Stats, error) {
	cfg := r.config(k)
	cfg.MaxCycles = 100_000_000
	hier.apply(&cfg.Cache)
	key := fmt.Sprintf("mixsolo/%s/t%d/%s/s%d/bp%v/f%v", name, k, hier.name, r.Scale, cfg.Predictor, cfg.FetchPolicy)
	run := func() (*core.Stats, error) {
		obj, err := build(r, k)
		if err != nil {
			return nil, err
		}
		m, err := core.New(obj, cfg)
		if err != nil {
			return nil, err
		}
		st, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("mix solo %s (threads=%d): %w", name, k, err)
		}
		return st, nil
	}
	return r.runCell(key, "mixsolo/"+name, func() *core.Stats { return placeholderStats(cfg) }, run)
}

// runMixCell simulates one mixed cell: both programs resident, the
// hierarchy variant applied, validated against the functional reference
// over the full stacked memory.
func (r *Runner) runMixCell(p *mixPairing, total int, hier hierVariant) (*core.Stats, error) {
	ka, kb := p.split(total)
	cfg := r.config(total)
	cfg.MaxCycles = 100_000_000
	cfg.CheckInvariants = r.Paranoid
	cfg.Injector = r.Injector
	hier.apply(&cfg.Cache)
	inj := "none"
	if cfg.Injector != nil {
		inj = cfg.Injector.String()
	}
	key := fmt.Sprintf("mix/%s/t%d+%d/%s/s%d/bp%v/f%v/inj{%s}",
		p.name, ka, kb, hier.name, r.Scale, cfg.Predictor, cfg.FetchPolicy, inj)
	run := func() (*core.Stats, error) {
		start := time.Now()
		mix, err := buildMix(r, p, ka, kb)
		if err != nil {
			return nil, err
		}
		cfg.Mix = mix
		m, err := core.New(nil, cfg)
		if err != nil {
			return nil, err
		}
		st, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("mix %s (threads=%d+%d %s): %w", p.name, ka, kb, hier.name, err)
		}
		// Architectural validation: the pipeline's full stacked memory —
		// every slot window — must match the in-order reference word for
		// word, so isolation violations cannot hide in a timing table.
		ref, err := funcsim.RunMix(mix, 500_000_000)
		if err != nil {
			return nil, fmt.Errorf("mix %s functional reference: %w", p.name, err)
		}
		if addr, got, want, differ := m.Memory().Diff(ref.Memory()); differ {
			return nil, fmt.Errorf("mix %s (threads=%d+%d %s) diverges from the functional reference at %#x: pipeline %#x, functional %#x",
				p.name, ka, kb, hier.name, addr, got, want)
		}
		r.progressf("mix %-12s t%d+%d %-11s: %d cycles (IPC %.2f) [%v]",
			p.name, ka, kb, hier.name, st.Cycles, st.IPC(), time.Since(start).Round(time.Millisecond))
		return st, nil
	}
	return r.runCell(key, "mix/"+p.name, func() *core.Stats { return placeholderStats(cfg) }, run)
}

// buildMix assembles the loader Mix for a pairing at a ka+kb split. A
// kb of zero degenerates to the first program alone.
func buildMix(r *Runner, p *mixPairing, ka, kb int) (*loader.Mix, error) {
	objA, err := p.a.build(r, ka)
	if err != nil {
		return nil, fmt.Errorf("mix %s slot A: %w", p.name, err)
	}
	slots := []loader.Slot{{Object: objA, Threads: ka, Regs: p.a.regs}}
	if kb > 0 {
		objB, err := p.b.build(r, kb)
		if err != nil {
			return nil, fmt.Errorf("mix %s slot B: %w", p.name, err)
		}
		slots = append(slots, loader.Slot{Object: objB, Threads: kb, Regs: p.b.regs})
	}
	return &loader.Mix{Slots: slots}, nil
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

// MixStudy runs the heterogeneous pairing × threads × hierarchy grid
// and renders three tables; the raw cells accumulate on Runner.MixCells
// for the JSON export.
func MixStudy(r *Runner) ([]Table, error) {
	plan := mixPlanFor(r.Scale)
	variants := hierVariants()

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

	for _, pairing := range plan.pairings {
		p := pairing
		for _, total := range plan.threads {
			for _, hier := range variants {
				ka, kb := p.split(total)
				st, err := r.runMixCell(&p, total, hier)
				if err != nil {
					return nil, fmt.Errorf("%s/t%d/%s: %w", p.name, total, hier.name, err)
				}
				soloA, err := p.a.solo(r, ka, hier)
				if err != nil {
					return nil, fmt.Errorf("%s solo A t%d/%s: %w", p.name, ka, hier.name, err)
				}
				soloB, err := p.b.solo(r, kb, hier)
				if err != nil {
					return nil, fmt.Errorf("%s solo B t%d/%s: %w", p.name, kb, hier.name, err)
				}

				committed, finish := slotAggregates(st, ka, kb)
				cyc := st.Cycles
				if cyc == 0 {
					cyc = 1
				}
				ipcA := float64(committed[0]) / float64(cyc)
				ipcB := float64(committed[1]) / float64(cyc)
				slowA := slowdown(finish[0], soloA.Cycles)
				slowB := slowdown(finish[1], soloB.Cycles)

				label := fmt.Sprintf("%d+%d", ka, kb)
				ipcTab.Rows = append(ipcTab.Rows, []string{
					p.name, label, hier.name,
					fmt.Sprintf("%.3f", ipcA), fmt.Sprintf("%.3f", ipcB),
					fmt.Sprintf("%.3f", st.IPC()),
				})
				slowTab.Rows = append(slowTab.Rows, []string{
					p.name, label, hier.name, slowA, slowB,
				})
				l2Col := "—"
				if st.Cache.L2Hits+st.Cache.L2Misses > 0 {
					l2Col = fmt.Sprintf("%.1f", 100*st.Cache.L2HitRate())
				}
				hitTab.Rows = append(hitTab.Rows, []string{
					p.name, label, hier.name,
					fmt.Sprintf("%.1f", 100*st.Cache.HitRate()),
					l2Col,
					fmt.Sprint(st.Cache.VictimHits),
					fmt.Sprint(st.Cache.PrefetchHits),
				})
				r.recordMixCell(MixCell{
					Pairing: p.name, Threads: total, Hierarchy: hier.name,
					Cycles: st.Cycles, IPC: st.IPC(),
					SlotNames:   []string{p.a.name, p.b.name},
					SlotThreads: []int{ka, kb},
					SlotIPC:     []float64{ipcA, ipcB},
					SlotFinish:  []uint64{finish[0], finish[1]},
					SlotSolo:    []uint64{soloA.Cycles, soloB.Cycles},
					SlotSlowdown: []float64{
						slowdownRatio(finish[0], soloA.Cycles),
						slowdownRatio(finish[1], soloB.Cycles),
					},
					L1HitRate: st.Cache.HitRate(), L2HitRate: st.Cache.L2HitRate(),
					VictimHits: st.Cache.VictimHits, PrefetchHits: st.Cache.PrefetchHits,
				})
			}
		}
	}

	ipcTab.Notes = append(ipcTab.Notes,
		"per-slot IPC is the slot group's committed instructions over total mixed cycles")
	slowTab.Notes = append(slowTab.Notes,
		"slot finish time is the last HALT commit of its thread group; solo runs use the same group size and hierarchy")
	hitTab.Notes = append(hitTab.Notes,
		"the l1 variant leaves the paper's 8 KB L1 alone: L2/victim/prefetch columns are structurally zero there")
	return []Table{ipcTab, slowTab, hitTab}, nil
}

// slowdown renders a mixed-vs-solo finish-time ratio, or a dash when a
// slot is empty (the degenerate single-program mix).
func slowdown(finish, solo uint64) string {
	if finish == 0 || solo == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fx", float64(finish)/float64(solo))
}

func slowdownRatio(finish, solo uint64) float64 {
	if finish == 0 || solo == 0 {
		return 0
	}
	return float64(finish) / float64(solo)
}
