package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// TestMixstudyCoversGrid: the small-scale export must contain exactly
// the declared grid — every pairing crossed with every thread count and
// hierarchy variant, no duplicates — and every row must be plausible:
// no slot finishes faster mixed than solo, and an l1 row, whose
// backside hierarchy is off, sees no L2 traffic and no victim or
// prefetch hits.
func TestMixstudyCoversGrid(t *testing.T) {
	j1, _ := sweeps(t)
	cells := j1.exports["mixstudy"].([]MixCell)
	plan := mixPlanFor(kernels.Small)
	want := len(plan.pairings) * len(plan.threads) * len(hierVariants())
	if len(cells) != want {
		t.Fatalf("exported %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := fmt.Sprintf("%s/%s/%d", c.Pairing, c.Hierarchy, c.Threads)
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		if c.Cycles == 0 {
			t.Errorf("cell %+v has zero cycles", c)
		}
		for i, sd := range c.SlotSlowdown {
			// Multiprogramming shares every pipeline resource: a slot can
			// never finish faster than its solo run to within rounding.
			if sd != 0 && sd < 0.99 {
				t.Errorf("cell %s finished slot %d faster mixed than solo (%.3fx)", key, i, sd)
			}
		}
		if c.Hierarchy == "l1" && (c.L2HitRate != 1 || c.L2Accesses != 0 || c.VictimHits != 0 || c.PrefetchHits != 0) {
			t.Errorf("cell %s reports backside hierarchy activity with the hierarchy off: %+v", key, c)
		}
	}
}

// TestMixSoloKeyNamesFrontend: a mix partner's solo baseline simulates
// under the runner's -bpred and -fetch overrides, so its cell ID must
// name both. A store filled by a default runner must not serve its
// TrueRR baseline to a runner that overrides the fetch policy.
func TestMixSoloKeyNamesFrontend(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "store"))
	prog, l1 := progenProgram(1996), hierVariants()[0]
	cswitch := func(r *Runner) *Runner {
		r.hasFetch, r.fetchOverride = true, core.CondSwitch
		return r
	}
	solo := func(r *Runner) uint64 {
		t.Helper()
		var st *core.Stats
		if _, err := probe(r, 1, func(r *Runner) (err error) {
			st, err = r.runSolo(prog, 2, l1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	fresh := solo(cswitch(NewRunner(kernels.Small)))

	def := NewRunner(kernels.Small)
	def.Store = s
	if got := solo(def); got == fresh {
		t.Fatalf("default and CondSwitch solos both take %d cycles; the test cannot tell them apart", got)
	}
	over := cswitch(NewRunner(kernels.Small))
	over.Store = s
	if got := solo(over); got != fresh {
		t.Errorf("CondSwitch solo from a default-filled store = %d cycles, fresh run %d", got, fresh)
	}
}

// TestHierarchyOffBitIdentity is the defaults-off guarantee in
// executable form: with L2, victim buffer, and prefetcher disabled (the
// default configuration), every benchmark × thread point in the
// committed BENCH_sim.json must still simulate the exact cycle and
// commit counts recorded there. Any hierarchy plumbing that leaks into
// the default path — an extra probe, a changed refill latency — moves
// these counts and fails here, without waiting for the bench harness.
func TestHierarchyOffBitIdentity(t *testing.T) {
	def := core.DefaultConfig()
	if def.Cache.L2 != nil || def.Cache.VictimEntries != 0 || def.Cache.Prefetch {
		t.Fatalf("default cache config has backside hierarchy enabled: %+v", def.Cache)
	}

	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var base struct {
		Schema string `json:"schema"`
		Points []struct {
			Kernel    string `json:"kernel"`
			Threads   int    `json:"threads"`
			SimCycles uint64 `json:"sim_cycles"`
			Committed uint64 `json:"committed"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing BENCH_sim.json: %v", err)
	}
	if len(base.Points) == 0 {
		t.Fatal("BENCH_sim.json has no points")
	}
	for _, p := range base.Points {
		p := p
		t.Run(p.Kernel+"-t"+string(rune('0'+p.Threads)), func(t *testing.T) {
			t.Parallel()
			b, err := kernels.Get(p.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := b.Build(kernels.Params{Threads: p.Threads, Scale: kernels.Small})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Threads = p.Threads
			m, err := core.New(obj, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles != p.SimCycles || st.Committed != p.Committed {
				t.Errorf("%s t%d: got %d cycles / %d committed, baseline %d / %d",
					p.Kernel, p.Threads, st.Cycles, st.Committed, p.SimCycles, p.Committed)
			}
		})
	}
}
