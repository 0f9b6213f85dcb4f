package main

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
)

// cellSpec is one cell of fig5/fig6: a paper kernel at a thread count
// under the paper's default configuration.
type cellSpec struct {
	bench   *kernels.Benchmark
	threads int
}

func (c cellSpec) String() string { return fmt.Sprintf("%s/t%d", c.bench.Name, c.threads) }

// threadCells lists the 66 cells of fig5 and fig6 in table order: the
// 11 paper kernels, each at 1 to 6 threads.
func threadCells() []cellSpec {
	var cells []cellSpec
	for _, b := range kernels.All() {
		for n := 1; n <= 6; n++ {
			cells = append(cells, cellSpec{b, n})
		}
	}
	return cells
}

// runDirect takes one cell through source → asm.Assemble → core.New →
// Machine.Run → Check on the calling goroutine, with a span around each
// call when tr is non-nil. tune, when non-nil, adjusts the configuration.
func runDirect(c cellSpec, scale kernels.Scale, tune func(*core.Config), tr *recorder, parent, id int) (*core.Stats, error) {
	p := kernels.Params{Threads: c.threads, Scale: scale}
	cfg := core.DefaultConfig()
	cfg.Threads = c.threads
	if tune != nil {
		tune(&cfg)
	}
	cell := tr.begin("cell", parent, id)
	defer tr.end(cell)

	sp := tr.begin("kernels.source", cell, id)
	src := c.bench.Source(p)
	tr.end(sp)

	sp = tr.begin("asm.assemble", cell, id)
	obj, err := asm.Assemble(src)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}

	sp = tr.begin("core.new", cell, id)
	m, err := core.New(obj, cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}

	sp = tr.begin("core.run", cell, id)
	st, err := m.Run()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}

	sp = tr.begin("kernels.check", cell, id)
	err = c.bench.Check(m.Memory(), obj, p)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%v failed validation: %w", c, err)
	}
	return st, nil
}

// warmUp runs the fig5/fig6 cells once at Small scale and checks them,
// so code pages, the heap and the CPU clock are warm before timing. It
// is every workload's common set-up step.
func warmUp() error {
	for i, c := range threadCells() {
		st, err := runDirect(c, kernels.Small, nil, nil, -1, -1)
		if err != nil {
			return err
		}
		if !matchesExpected(kernels.Small, i, st) {
			return fmt.Errorf("%v: %d cycles, %d committed differ from expected.json", c, st.Cycles, st.Committed)
		}
	}
	return nil
}

// replayLayers replays the fig5/fig6 cells directly at scale three times
// — as configured, with the fast-forward off, and with PhaseTiming on —
// under roots of tr, and reports the core, kernels and asm layer metrics.
// The three replays alternate cell by cell, so host drift during the
// replay affects them alike.
func replayLayers(scale kernels.Scale, tr *recorder, m map[string]float64) (attempted, failed int) {
	type replay struct {
		name              string
		tune              func(*core.Config)
		root              int
		cycles, committed uint64
		phases            core.PhaseTimes
	}
	def := &replay{name: "replay.default"}
	noff := &replay{name: "replay.no_fast_forward", tune: func(c *core.Config) { c.NoFastForward = true }}
	timed := &replay{name: "replay.phase_timing", tune: func(c *core.Config) { c.PhaseTiming = true }}
	replays := []*replay{def, noff, timed}
	for _, r := range replays {
		r.root = tr.begin(r.name, -1, -1)
	}
	for i, c := range threadCells() {
		for _, r := range replays {
			attempted++
			st, err := runDirect(c, scale, r.tune, tr, r.root, i)
			if err != nil || !matchesExpected(scale, i, st) {
				failed++
				continue
			}
			r.cycles += st.Cycles
			r.committed += st.Committed
			r.phases.Add(st.PhaseTime)
		}
	}
	for _, r := range replays {
		tr.end(r.root)
		tr.count(r.name+"/core.sim_cycles", r.cycles)
		tr.count(r.name+"/core.committed", r.committed)
	}

	ld, ln, lt := tr.layers(def.root), tr.layers(noff.root), tr.layers(timed.root)
	perCycle := func(d float64) float64 { return d / float64(max(def.cycles, 1)) }
	run, runNoFF := float64(ld["core.run"].total), float64(ln["core.run"].total)
	m["core.run_ns_per_cycle"] = perCycle(run)
	m["core.ff_saved_frac"] = 1 - run/runNoFF
	for p := core.Phase(0); p < core.NumPhases; p++ {
		m["core.stage."+p.String()+"_ns_per_cycle"] = perCycle(float64(timed.phases[p]))
	}
	m["core.stage.stopwatch_overhead_frac"] = float64(lt["core.run"].total)/runNoFF - 1
	m["core.new_us"] = us(ld["core.new"].mean())
	m["core.sim_cycles"] = float64(def.cycles)
	m["core.committed"] = float64(def.committed)
	m["kernels.source_us"] = us(ld["kernels.source"].mean())
	m["asm.assemble_us"] = us(ld["asm.assemble"].mean())
	m["kernels.check_us"] = us(ld["kernels.check"].mean())
	fixed := ld["kernels.source"].total + ld["asm.assemble"].total + ld["core.new"].total + ld["kernels.check"].total
	m["cell.fixed_frac"] = float64(fixed) / float64(ld["cell"].total)
	return attempted, failed
}
