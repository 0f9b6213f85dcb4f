package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// TestSweepIDsPinned: a sweep's ID names an sdsp-serve job's directory
// (jobs/<id>/), so it must not move while the sweep's JSON does not.
// The values were computed when the spec type lived in internal/serve.
func TestSweepIDsPinned(t *testing.T) {
	for _, tc := range []struct {
		sw   Sweep
		want string
	}{
		{Sweep{Experiments: []string{"fig3"}, Scale: "small"}, "j37fd09b209be"},
		{Sweep{Experiments: []string{"fig3", "fig5"}, Scale: "paper", Bpred: "tage",
			Fetch: "icount", Fault: "light", Paranoid: true}, "j62f6127ec288"},
	} {
		sw := tc.sw
		if err := sw.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := sw.ID(); got != tc.want {
			t.Errorf("%+v: ID %s, want %s", tc.sw, got, tc.want)
		}
	}
}

// TestSweepRejects: every value a sweep carries is validated by
// Normalize, with a diagnostic.
func TestSweepRejects(t *testing.T) {
	for _, sw := range []Sweep{
		{Experiments: []string{"no-such-experiment"}, Scale: "small"},
		{Experiments: []string{"fig3"}, Scale: "enormous"},
		{Experiments: nil},
		{Experiments: []string{"fig3", "fig3"}, Scale: "small"},
		{Experiments: []string{"fig3", "FIG3"}, Scale: "small"},
		{Experiments: []string{"fig3", ""}, Scale: "small"},
		{Experiments: []string{"fig3"}, Scale: "small", Bpred: "psychic"},
		{Experiments: []string{"fig3"}, Scale: "small", Fetch: "psychic"},
		{Experiments: []string{"fig3"}, Scale: "small", Fault: "psychic"},
	} {
		if err := sw.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v", sw)
		}
	}
}

// TestSweepCanonicalForm: equivalent sweeps normalize to one value, and
// so to one ID.
func TestSweepCanonicalForm(t *testing.T) {
	all := Sweep{Experiments: []string{" all "}}
	if err := all.Normalize(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range Registry() {
		names = append(names, e.Name)
	}
	if all.Scale != "paper" || !reflect.DeepEqual(all.Experiments, names) {
		t.Errorf("normalized to %+v, want the paper-scale registry", all)
	}
	a := Sweep{Experiments: []string{" FIG3", "fig5 "}, Scale: "small"}
	b := Sweep{Experiments: []string{"fig3", "fig5"}, Scale: "small"}
	if a.Normalize() != nil || b.Normalize() != nil || a.ID() != b.ID() {
		t.Errorf("%+v and %+v differ after normalizing", a, b)
	}
}

// TestSweepRunnerSettings: NewRunner turns a sweep's overrides into the
// runner settings every cell simulates, and an empty sweep sets none of
// them, so its cells are the default runner's cells.
func TestSweepRunnerSettings(t *testing.T) {
	sw := Sweep{Experiments: []string{"fig3", "table3"}, Scale: "small", Bpred: "tage",
		Fetch: "icount", Fault: "light", Paranoid: true}
	r, exps, err := sw.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].Name != "fig3" || exps[1].Name != "table3" {
		t.Errorf("experiments %v, want fig3 then table3", exps)
	}
	if r.Scale != kernels.Small || !r.paranoid || r.predictor != core.PredTAGE ||
		!r.hasFetch || r.fetchOverride != core.ICount || r.injector == nil {
		t.Errorf("runner settings not applied: %+v", r)
	}

	plain, _, err := (&Sweep{Experiments: []string{"fig3"}, Scale: "small", Bpred: "2bit"}).NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if plain.paranoid || plain.predictor != core.PredTwoBit || plain.hasFetch || plain.injector != nil {
		t.Errorf("default sweep set overrides: %+v", plain)
	}
	one := []Experiment{{Name: "one", Run: func(r *Runner) ([]Table, error) {
		_, err := r.run(kernels.GroupI()[0], r.config(4))
		return nil, err
	}}}
	key := func(r *Runner) string {
		t.Helper()
		cells, err := r.DeclareCells(one)
		if err != nil || len(cells) != 1 {
			t.Fatalf("declared %v, %v", cells, err)
		}
		return cells[0].Key
	}
	if key(plain) != key(NewRunner(kernels.Small)) {
		t.Error("a default sweep's cell differs from the default runner's")
	}
	if key(r) == key(plain) {
		t.Error("the overriding sweep's cell is the default one")
	}
}
