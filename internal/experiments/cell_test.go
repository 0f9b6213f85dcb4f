package experiments

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/minic"
)

// perturbLeaves changes every leaf reachable from v in turn, calls check
// with the leaf's path, and restores it. Arrays are perturbed element by
// element and pointers are followed, so they must be non-nil.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil: set it before perturbing", path)
		}
		perturbLeaves(t, v.Elem(), path, check)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	default:
		t.Fatalf("%s: the test cannot perturb kind %s", path, v.Kind())
	}
}

// TestCellIDNamesEveryField extends TestRunnerMemoization's "a different
// config must be a different cell" to the ID itself, without simulating:
// every leaf of Config, of a slot and of its kernels.Params is part of
// the ID, so a field added later cannot alias two cells.
func TestCellIDNamesEveryField(t *testing.T) {
	r := NewRunner(kernels.Small)
	spec := cellSpec{label: "LL1", cfg: r.config(2), slots: []cellSlot{{Threads: 2, Kernel: "LL1",
		Params: kernels.Params{Threads: 2, Scale: kernels.Small}}}}
	ic := cache.DefaultConfig()
	ic.L2 = cache.DefaultL2()
	spec.cfg.ICache = &ic
	spec.cfg.Cache.L2 = cache.DefaultL2()
	base := cellID(spec)

	changed := func(path string) {
		if cellID(spec) == base {
			t.Errorf("perturbing %s leaves the cell ID unchanged", path)
		}
	}
	cfg := reflect.ValueOf(&spec.cfg).Elem()
	for i := 0; i < cfg.NumField(); i++ {
		switch name := cfg.Type().Field(i).Name; name {
		case "Injector", "Coverage", "Mix": // folded in separately, below
		default:
			perturbLeaves(t, cfg.Field(i), "Config."+name, changed)
		}
	}
	perturbLeaves(t, reflect.ValueOf(&spec.slots[0]).Elem(), "cellSlot", changed)

	spec.cfg.Injector = fault.New(1, fault.Rates{CacheMiss: 0.1})
	withInj := cellID(spec)
	if withInj == base {
		t.Error("an injector leaves the cell ID unchanged")
	}
	spec.cfg.Injector = fault.New(2, fault.Rates{CacheMiss: 0.1})
	if cellID(spec) == withInj {
		t.Error("injectors with different specs share a cell ID")
	}
	spec.cfg.Injector = nil

	spec.cfg.Coverage = cover.NewSet()
	withCov := cellID(spec)
	if withCov == base {
		t.Error("coverage recording leaves the cell ID unchanged")
	}
	spec.cfg.Coverage = cover.NewSet()
	if cellID(spec) != withCov {
		t.Error("two fresh coverage sets give different cell IDs")
	}
	spec.cfg.Coverage = nil

	spec.slots = append(spec.slots, cellSlot{Threads: 1, Seed: 7, Regs: 21})
	if cellID(spec) == base {
		t.Error("a second slot leaves the cell ID unchanged")
	}
	spec.slots = spec.slots[:1]

	spec.label = "renamed"
	if cellID(spec) != base {
		t.Error("the label changes the cell ID")
	}
}

// TestCellIDFollowsPointers: equal values behind distinct pointers are
// one cell.
func TestCellIDFollowsPointers(t *testing.T) {
	r := NewRunner(kernels.Small)
	mk := func() cellSpec {
		cfg := r.config(4)
		ic := cache.Config{SizeBytes: 2048, LineBytes: 32, Ways: 2, MissPenalty: 12}
		cfg.ICache = &ic
		cfg.Cache.L2 = cache.DefaultL2()
		return cellSpec{cfg: cfg, slots: []cellSlot{{Threads: 4, Kernel: "LL1"}}}
	}
	a, b := mk(), mk()
	if a.cfg.ICache == b.cfg.ICache || a.cfg.Cache.L2 == b.cfg.Cache.L2 {
		t.Fatal("the specs share pointers; the test needs distinct ones")
	}
	if cellID(a) != cellID(b) {
		t.Error("equal configs behind distinct pointers give different cell IDs")
	}
}

// TestCellIDRejectsMaps: a kind the encoding does not define panics
// instead of being skipped.
func TestCellIDRejectsMaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("encoding a struct with a map field did not panic")
		}
	}()
	appendCanonical(nil, reflect.ValueOf(struct{ M map[string]int }{}))
}

// TestParanoidRunnerSimulatesItsCells: a store filled by a default
// runner holds cells that never ran the invariant checker, so a
// Paranoid runner on the same store must simulate, not be served.
func TestParanoidRunnerSimulatesItsCells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	exps := []Experiment{{Name: "two", Run: func(r *Runner) ([]Table, error) {
		for _, b := range kernels.GroupI()[:2] {
			if _, err := r.run(b, r.config(2)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}}}
	if _, filled := renderStored(t, openStore(t, dir), 2, exps); len(filled) != 2 {
		t.Fatalf("default runner declared %d cells, want 2", len(filled))
	}
	r := NewRunner(kernels.Small)
	r.paranoid = true
	r.Store = openStore(t, dir)
	_, timings, err := r.RunExperiments(exps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := sourceCounts(timings); n["sim"] != 2 || len(timings) != 2 {
		t.Errorf("paranoid cell sources = %v, want both simulated, not served unchecked", n)
	}
}

// TestMiniCSoloHonoursPredictor: under a TAGE runner, the MiniC solo
// baseline of mixstudy's Matrix+lean pairing has the Stats of a direct
// TAGE run of the same object, not those of the paper's 2-bit counter.
// At the pairing's group sizes the two predictors tie on cycles, so the
// guard compares the whole Stats (the branch counters differ).
func TestMiniCSoloHonoursPredictor(t *testing.T) {
	var lean mixProgram
	for _, p := range mixPlanFor(kernels.Small).pairings {
		if p.name == "Matrix+lean" {
			lean = p.b
		}
	}
	if lean.slot.MiniC == "" {
		t.Fatal("Matrix+lean has no MiniC partner")
	}
	const k = 2
	direct := func(pred core.PredictorKind) *core.Stats {
		t.Helper()
		obj, err := minic.CompileToObject(lean.slot.MiniC, minic.Options{Regs: lean.slot.Regs})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Threads = k
		cfg.Predictor = pred
		m, err := core.New(obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tage := direct(core.PredTAGE)
	if reflect.DeepEqual(direct(core.PredTwoBit), tage) {
		t.Fatal("2-bit and TAGE runs have equal Stats; the test cannot tell them apart")
	}
	r := NewRunner(kernels.Small)
	r.predictor = core.PredTAGE
	var got *core.Stats
	if _, err := probe(r, 1, func(r *Runner) (err error) {
		got, err = r.runSolo(lean, k, hierVariants()[0])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tage) {
		t.Errorf("TAGE runner's MiniC solo differs from a direct TAGE run:\n got  %+v\n want %+v", got.Branch, tage.Branch)
	}
}

// TestHWAblationsICacheSizesAreDistinctCells: hwablations' 2 KB and
// 8 KB I-cache columns are two cells, not one memoized under a key that
// only says "an I-cache".
func TestHWAblationsICacheSizesAreDistinctCells(t *testing.T) {
	e, err := Get("hwablations")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := NewRunner(kernels.Small).DeclareCells([]Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	// Per kernel: baseline, 1-bit, per-thread BTB, 2 KB and 8 KB
	// I-cache, and store forwarding.
	if want := 6 * len(kernels.All()); len(cells) != want {
		t.Errorf("hwablations declares %d cells, want %d", len(cells), want)
	}
}
