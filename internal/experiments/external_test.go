package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/kernels"
)

// TestDeclareCellsDeterministicAcrossRunners: two independently
// configured runners must declare the identical cell list for one spec
// — the property that lets sdsp-serve workers claim cells by key
// without any central cell table.
func TestDeclareCellsDeterministicAcrossRunners(t *testing.T) {
	exps := []Experiment{Registry()[2], Registry()[4]} // fig3, fig5
	declare := func() []DeclaredCell {
		r := NewRunner(kernels.Small)
		cells, err := r.DeclareCells(exps)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a, b := declare(), declare()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("declared %d then %d cells, want identical non-empty lists", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Label != b[i].Label {
			t.Fatalf("cell %d differs: (%s, %s) vs (%s, %s)", i, a[i].Key, a[i].Label, b[i].Key, b[i].Label)
		}
	}
}

// TestExecuteDeclaredMatchesPipeline: executing declared cells one by
// one through the external hook, then assembling, must render the same
// bytes as the in-process pipeline — and a second runner over the same
// store must serve every one of those cells without resimulating.
func TestExecuteDeclaredMatchesPipeline(t *testing.T) {
	exps := []Experiment{Registry()[2]} // fig3
	dir := filepath.Join(t.TempDir(), "cells")

	// External-style execution: list the cells, execute each, build.
	ext := NewRunner(kernels.Small)
	ext.Store = openStore(t, dir)
	cells, err := ext.DeclareCells(exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells declared")
	}
	for _, c := range cells {
		tm, err := ext.ExecuteDeclared(c)
		if err != nil {
			t.Fatalf("cell %s failed: %v", c.Label, err)
		}
		if tm.Source != "sim" || tm.Cycles == 0 {
			t.Errorf("cell %s timing = %+v, want a fresh simulation", c.Label, tm)
		}
	}
	extOut, extT := renderStored(t, openStore(t, dir), 1, exps)
	if n := sourceCounts(extT); n["store"] != len(extT) || len(extT) != len(cells) {
		t.Errorf("assembly after external execution resimulated: sources %v over %d cells, want all %d store-served",
			n, len(extT), len(cells))
	}

	// Reference: the ordinary in-process pipeline, no store.
	r := NewRunner(kernels.Small)
	tables, _, err := r.RunExperiments(exps, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := buf.String()
	if extOut != ref {
		t.Errorf("externally executed sweep differs from the pipeline at byte %d", firstDiff(extOut, ref))
	}
}
