package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/kernels"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables and the model digest")

const (
	goldenPath     = "testdata/small_tables.golden"
	digestPath     = "testdata/model.digest"
	paperGoldenDir = "testdata/paper"
)

// paperPinned are the figure and table experiments pinned at Paper
// scale, the scale EXPERIMENTS.md reports and RESULTS.md prints: each
// has a golden under testdata/paper, the paper claims read their rows,
// and the model digest covers their cells.
var paperPinned = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3",
	"fig9", "fig10", "fig11", "fig12", "table4", "fig13", "fig14", "summary",
	"ablations", "improvements", "hwablations"}

// The Paper sweep is the expensive one; the golden, digest and claims
// tests share one run of it.
var (
	paperOnce sync.Once
	paperRun  sweep
)

func paperSweep(t *testing.T) sweep {
	t.Helper()
	paperOnce.Do(func() {
		r, exps, err := (&Sweep{Experiments: paperPinned, Scale: "paper"}).NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		paperRun = runSweep(t, r, exps, 2)
	})
	if paperRun.out == "" {
		t.Fatal("the Paper sweep failed in an earlier test")
	}
	return paperRun
}

// TestGoldenSmallTables pins the complete `sdsp-exp -scale small`
// output: every table of every experiment, rendered. Any change to a
// kernel, the core, or an experiment that shifts a single cycle count
// shows up as a diff here. Regenerate deliberately with make golden.
func TestGoldenSmallTables(t *testing.T) {
	j1, _ := sweeps(t)
	checkGolden(t, goldenPath, j1.out)
}

// TestGoldenPaperTables pins `sdsp-exp -scale paper -exp NAME` for
// every paperPinned experiment, one golden file each, so `make
// paranoid` compares its fig5/fig6 run with two of them. Regenerate
// deliberately with make golden.
func TestGoldenPaperTables(t *testing.T) {
	p := paperSweep(t)
	if *updateGolden {
		if err := os.MkdirAll(paperGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range paperPinned {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			for _, tab := range p.tables[i] {
				if err := tab.Render(&buf); err != nil {
					t.Fatal(err)
				}
			}
			checkGolden(t, filepath.Join(paperGoldenDir, name+".golden"), buf.String())
		})
	}
}

// TestModelDigest pins the model digest that every cell ID folds in:
// the digest of the Stats of every Small-sweep cell and every
// Paper-pinned cell. A change that moves any of them renames every
// cell, so a warm store at either scale recomputes instead of serving
// stale results. make golden rewrites it.
func TestModelDigest(t *testing.T) {
	j1, _ := sweeps(t)
	p := paperSweep(t)
	got := statsDigest(t, j1, p)
	t.Logf("digest of %d Small-sweep and %d Paper-pinned cells: %s", len(j1.decl), len(p.decl), got)
	if *updateGolden {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", digestPath)
		return
	}
	if modelDigest != got {
		t.Errorf("model digest %q (%s) is stale: the pinned cells' Stats hash to %s (regenerate with make golden)",
			modelDigest, digestPath, got)
	}
}

// TestModelDigestOrderIndependent: the digest names cells by what they
// simulate, so two experiments declared in either order digest alike.
func TestModelDigestOrderIndependent(t *testing.T) {
	a, err := Get("fig13")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	ab := runSweep(t, NewRunner(kernels.Small), []Experiment{a, b}, 2)
	ba := runSweep(t, NewRunner(kernels.Small), []Experiment{b, a}, 2)
	if ab.decl[0].Key == ba.decl[0].Key {
		t.Fatal("both orders declare the same first cell; the test cannot tell the orders apart")
	}
	if ab.digest != ba.digest {
		t.Errorf("declaration order changes the digest: %s vs %s", ab.digest, ba.digest)
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run make golden to create): %v", err)
	}
	if got != string(want) {
		d := firstDiff(got, string(want))
		t.Errorf("tables diverge from %s at byte %d:\n  got  %q\n  want %q\n(regenerate with make golden if the change is intended)",
			path, d, excerpt(got, d), excerpt(string(want), d))
	}
}
