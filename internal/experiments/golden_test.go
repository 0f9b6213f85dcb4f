package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables")

const (
	goldenPath      = "testdata/small_tables.golden"
	digestPath      = "testdata/model.digest"
	paperGoldenPath = "testdata/paper_fig5_fig6.golden"
)

// TestGoldenSmallTables pins the complete `sdsp-exp -scale small`
// output: every table of every experiment, rendered. Any change to a
// kernel, the core, or an experiment that shifts a single cycle count
// shows up as a diff here. It also pins the model digest that every
// cell ID folds in, so a change that moves any Small-scale Stats field
// renames every cell. Regenerate both deliberately with:
//
//	go test ./internal/experiments -run TestGoldenSmallTables -update
func TestGoldenSmallTables(t *testing.T) {
	j1, _ := sweeps(t)
	got := j1.out
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(j1.digest), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes) and %s", goldenPath, len(got), digestPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		d := firstDiff(got, string(want))
		t.Errorf("small-scale tables diverge from %s at byte %d:\n  got  %q\n  want %q\n(regenerate with -update if the change is intended)",
			goldenPath, d, excerpt(got, d), excerpt(string(want), d))
	}
	if modelDigest != j1.digest {
		t.Errorf("model digest %q (%s) is stale: the Small sweep's Stats hash to %s (regenerate with make golden)",
			modelDigest, digestPath, j1.digest)
	}
}

// TestGoldenPaperThreads pins `sdsp-exp -scale paper -exp fig5,fig6`:
// the 66 Paper-scale thread-sweep cells, at the scale EXPERIMENTS.md
// reports and RESULTS.md prints. The model digest stays Small-only, so
// a change this golden catches does not rename cells by itself.
// Regenerate deliberately with make golden.
func TestGoldenPaperThreads(t *testing.T) {
	r, exps, err := (&Sweep{Experiments: []string{"fig5", "fig6"}, Scale: "paper"}).NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := r.RunExperiments(exps, 2)
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
	got := buf.String()
	if *updateGolden {
		if err := os.WriteFile(paperGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", paperGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run make golden to create): %v", err)
	}
	if got != string(want) {
		d := firstDiff(got, string(want))
		t.Errorf("Paper-scale fig5/fig6 tables diverge from %s at byte %d:\n  got  %q\n  want %q\n(regenerate with make golden if the change is intended)",
			paperGoldenPath, d, excerpt(got, d), excerpt(string(want), d))
	}
}
