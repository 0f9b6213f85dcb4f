package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

const mixGoldenPath = "testdata/mixstudy_small.golden"

// renderMixStudy runs just the mixstudy at Small scale with the given
// worker count and returns the rendered tables plus the raw cell export.
func renderMixStudy(t *testing.T, jobs int) (string, []MixCell) {
	t.Helper()
	r := NewRunner(kernels.Small)
	e, err := Get("mixstudy")
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := r.RunExperiments([]Experiment{e}, jobs)
	if err != nil {
		t.Fatalf("RunExperiments(j=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
		}
	}
	return buf.String(), r.MixCells
}

// TestMixstudyGoldenSmall pins the small-scale mixstudy tables byte for
// byte — the same check `make mixstudy-smoke` runs in CI. Heterogeneous
// layout, slot accounting, and the L2/victim/prefetch hierarchy stay
// frozen: any change that moves a mixed cycle count shows up here.
// Regenerate with:
//
//	go test ./internal/experiments -run TestMixstudyGoldenSmall -update
func TestMixstudyGoldenSmall(t *testing.T) {
	got, _ := renderMixStudy(t, 8)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(mixGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mixGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", mixGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(mixGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		d := firstDiff(got, string(want))
		t.Errorf("mixstudy tables diverge from %s at byte %d:\n  got  %q\n  want %q\n(regenerate with -update if the change is intended)",
			mixGoldenPath, d, excerpt(got, d), excerpt(string(want), d))
	}
}

// TestMixstudyParallelIdentity: the rendered tables AND the raw
// per-cell export must be identical between a sequential and an 8-way
// run, so the declare/schedule/assemble pipeline's byte-identity
// guarantee extends to heterogeneous cells.
func TestMixstudyParallelIdentity(t *testing.T) {
	out1, cells1 := renderMixStudy(t, 1)
	out8, cells8 := renderMixStudy(t, 8)
	if out1 != out8 {
		d := firstDiff(out1, out8)
		t.Errorf("tables differ between -j 1 and -j 8 at byte %d: %q vs %q",
			d, excerpt(out1, d), excerpt(out8, d))
	}
	if len(cells1) == 0 {
		t.Fatal("mixstudy recorded no cells")
	}
	if !reflect.DeepEqual(cells1, cells8) {
		t.Errorf("MixCells differ between -j 1 and -j 8:\n j1: %+v\n j8: %+v", cells1, cells8)
	}
	for _, c := range cells1 {
		if c.Cycles == 0 {
			t.Errorf("cell %+v has zero cycles", c)
		}
		for i, sd := range c.SlotSlowdown {
			// Multiprogramming shares every pipeline resource: a slot can
			// never finish faster than its solo run to within rounding.
			if sd != 0 && sd < 0.99 {
				t.Errorf("cell %s/%s t%d slot %d finished faster mixed than solo (%.3fx)",
					c.Pairing, c.Hierarchy, c.Threads, i, sd)
			}
		}
		if c.Hierarchy == "l1" && (c.L2HitRate != 0 && c.L2HitRate != 1 || c.VictimHits != 0 || c.PrefetchHits != 0) {
			if c.VictimHits != 0 || c.PrefetchHits != 0 {
				t.Errorf("cell %+v reports backside hierarchy hits with the hierarchy off", c)
			}
		}
	}
}

// TestMixstudyCoversGrid: the small-scale export must contain exactly
// the declared grid — every pairing crossed with every thread count and
// hierarchy variant, no duplicates.
func TestMixstudyCoversGrid(t *testing.T) {
	_, cells := renderMixStudy(t, 8)
	plan := mixPlanFor(kernels.Small)
	want := len(plan.pairings) * len(plan.threads) * len(hierVariants())
	if len(cells) != want {
		t.Fatalf("exported %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := c.Pairing + "/" + c.Hierarchy + "/" + string(rune('0'+c.Threads))
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
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
		r.HasFetch, r.FetchOverride = true, core.CondSwitch
		return r
	}
	solo := func(r *Runner) uint64 {
		t.Helper()
		st, err := r.runSolo(prog, 2, l1)
		if err != nil {
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
