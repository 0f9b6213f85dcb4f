package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/kernels"
	"repro/internal/store"
)

// openStore mounts a cell store under dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderStored runs exps on a fresh runner backed by s and returns the
// rendered tables plus the cell timings.
func renderStored(t *testing.T, s *store.Store, jobs int, exps []Experiment) (string, []CellTiming) {
	t.Helper()
	r := NewRunner(kernels.Small)
	r.Store = s
	tables, timings, err := r.RunExperiments(exps, jobs)
	if err != nil {
		t.Fatalf("RunExperiments: %v", err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String(), timings
}

// sourceCounts tallies timings by provenance.
func sourceCounts(timings []CellTiming) map[string]int {
	m := map[string]int{}
	for _, tm := range timings {
		m[tm.Source]++
	}
	return m
}

// TestStoreColdWarmMixedIdentity is the store's headline property: a
// cold sweep (everything simulated), a warm sweep (everything served
// from the store), and a mixed sweep (store partially destroyed) must
// render byte-identical tables.
func TestStoreColdWarmMixedIdentity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	exps := []Experiment{Registry()[2]} // fig3: real cells, small enough to run thrice

	cold, coldT := renderStored(t, openStore(t, dir), 4, exps)
	if n := sourceCounts(coldT); n["sim"] != len(coldT) || len(coldT) == 0 {
		t.Fatalf("cold sweep sources = %v, want all %d from sim", n, len(coldT))
	}

	warmStore := openStore(t, dir)
	warm, warmT := renderStored(t, warmStore, 4, exps)
	if warm != cold {
		t.Errorf("warm output differs from cold at byte %d", firstDiff(warm, cold))
	}
	if n := sourceCounts(warmT); n["store"] != len(warmT) {
		t.Errorf("warm sweep sources = %v, want all %d from store", n, len(warmT))
	}
	if st := warmStore.Stats(); st.Hits != uint64(len(warmT)) || st.Misses != 0 {
		t.Errorf("warm stats = %+v, want %d hits and 0 misses", st, len(warmT))
	}

	// Degrade the store: corrupt every third record in place, by
	// flipping the closing brace of its envelope.
	recs, err := store.Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i%3 != 0 {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, "segments", rec.Segment), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.WriteAt([]byte{'}' ^ 1}, rec.Offset+rec.Size-1)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	mixedStore := openStore(t, dir)
	mixed, mixedT := renderStored(t, mixedStore, 4, exps)
	if mixed != cold {
		t.Errorf("mixed output differs from cold at byte %d", firstDiff(mixed, cold))
	}
	n := sourceCounts(mixedT)
	if n["sim"] == 0 || n["store"] == 0 || n["sim"]+n["store"] != len(mixedT) {
		t.Errorf("mixed sweep sources = %v, want a mix of sim and store over %d cells", n, len(mixedT))
	}
	if st := mixedStore.Stats(); st.Repairs == 0 {
		t.Error("corrupted cell was not repaired")
	}
}

// TestStoreCountersIndependentOfWorkers: the exported store/supervision
// counters must be identical for -j 1 and -j 8, cold and warm — the
// counter analogue of the byte-identical-tables property.
func TestStoreCountersIndependentOfWorkers(t *testing.T) {
	exps := []Experiment{Registry()[2]}
	reportAt := func(jobs int) (cold, warm StoreReport) {
		dir := filepath.Join(t.TempDir(), "cells")
		snap := func(s *store.Store) StoreReport {
			r := NewRunner(kernels.Small)
			r.Store = s
			if _, _, err := r.RunExperiments(exps, jobs); err != nil {
				t.Fatalf("j=%d: %v", jobs, err)
			}
			rep := r.StoreReport()
			rep.Dir = "" // the temp path is the only legitimate difference
			return rep
		}
		return snap(openStore(t, dir)), snap(openStore(t, dir))
	}
	c1, w1 := reportAt(1)
	c8, w8 := reportAt(8)
	if c1 != c8 {
		t.Errorf("cold counters differ by worker count:\n  j=1: %+v\n  j=8: %+v", c1, c8)
	}
	if w1 != w8 {
		t.Errorf("warm counters differ by worker count:\n  j=1: %+v\n  j=8: %+v", w1, w8)
	}
	if c1.Commits == 0 || c1.Hits != 0 {
		t.Errorf("cold counters implausible: %+v", c1)
	}
	if w1.Hits == 0 || w1.Commits != 0 {
		t.Errorf("warm counters implausible: %+v", w1)
	}
}

// TestTransientFailuresAreRetried: a cell that fails transiently twice
// then succeeds must succeed overall, within the retry budget.
func TestTransientFailuresAreRetried(t *testing.T) {
	r := NewRunner(kernels.Small)
	r.Retries = 3
	calls := 0
	out := r.superviseCell("k", "cell", func() (*core.Stats, error) {
		calls++
		if calls <= 2 {
			return nil, store.Transient(errors.New("flaky lock"))
		}
		return &core.Stats{Cycles: 7}, nil
	})
	if out.err != nil || out.st.Cycles != 7 {
		t.Fatalf("outcome = %+v, want success", out)
	}
	if out.attempts != 3 || calls != 3 {
		t.Errorf("attempts = %d (calls %d), want 3", out.attempts, calls)
	}
	if r.sup.Retries != 2 {
		t.Errorf("retry counter = %d, want 2", r.sup.Retries)
	}
}

// TestTransientBudgetExhaustion: a persistently transient cell fails
// after Retries re-attempts, surfacing the underlying error.
func TestTransientBudgetExhaustion(t *testing.T) {
	r := NewRunner(kernels.Small)
	r.Retries = 1
	calls := 0
	out := r.superviseCell("k", "cell", func() (*core.Stats, error) {
		calls++
		return nil, store.Transient(errors.New("disk flaking"))
	})
	if out.err == nil || !store.IsTransient(out.err) {
		t.Fatalf("outcome err = %v, want the transient error", out.err)
	}
	if calls != 2 {
		t.Errorf("ran %d times, want initial attempt + 1 retry", calls)
	}
}

// TestDeterministicFailureIsNotRetriedForever: a non-transient,
// non-machine failure (build or validation error) surfaces immediately.
func TestDeterministicFailureIsNotRetriedForever(t *testing.T) {
	r := NewRunner(kernels.Small)
	r.Retries = 5
	calls := 0
	out := r.superviseCell("k", "cell", func() (*core.Stats, error) {
		calls++
		return nil, errors.New("validation failed")
	})
	if out.err == nil || calls != 1 {
		t.Fatalf("deterministic failure ran %d times (err %v), want exactly 1", calls, out.err)
	}
}

// TestCellTimeoutSurfaces: a wedged cell is killed by the wall-clock
// budget and reported as a timeout, not retried and not hung.
func TestCellTimeoutSurfaces(t *testing.T) {
	r := NewRunner(kernels.Small)
	r.CellTimeout = 20 * time.Millisecond
	r.Retries = 3
	start := time.Now()
	out := r.superviseCell("k", "wedged", func() (*core.Stats, error) {
		time.Sleep(2 * time.Second)
		return &core.Stats{Cycles: 1}, nil
	})
	var te *CellTimeoutError
	if !errors.As(out.err, &te) {
		t.Fatalf("outcome err = %v, want CellTimeoutError", out.err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v to fire, budget was 20ms", elapsed)
	}
	if r.sup.Timeouts != 1 {
		t.Errorf("timeout counter = %d, want 1", r.sup.Timeouts)
	}
}

// TestQuarantinePersistsAcrossRunners: a deterministically failing cell
// (machine error twice) is quarantined, renders as QUARANTINED, and a
// second runner on the same store serves the verdict without paying for
// two more failing simulations.
func TestQuarantinePersistsAcrossRunners(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	b := kernels.GroupI()[0]

	// runaway requests b with a 10-cycle budget: a deterministic machine
	// error.
	runaway := func(r *Runner) error {
		cfg := r.config(2)
		cfg.MaxCycles = 10
		_, err := r.run(b, cfg)
		return err
	}
	r1 := NewRunner(kernels.Small)
	r1.Store = openStore(t, dir)
	_, err := probe(r1, 1, runaway)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("first run returned %v, want QuarantinedError", err)
	}
	if r1.sup.Quarantines != 1 || r1.sup.Retries != 1 {
		t.Errorf("supervision counters = %+v, want 1 quarantine after 1 confirmation retry", r1.sup)
	}
	if v, cerr := CellValue(nil, err, cycles); cerr != nil || v != "QUARANTINED" {
		t.Errorf("CellValue = (%q, %v), want the QUARANTINED marker", v, cerr)
	}

	r2 := NewRunner(kernels.Small)
	r2.Store = openStore(t, dir)
	_, err2 := probe(r2, 1, runaway)
	if !errors.As(err2, &qe) {
		t.Fatalf("second runner returned %v, want the stored QuarantinedError", err2)
	}
	if r2.sup.Quarantines != 0 || r2.sup.Retries != 0 {
		t.Errorf("second runner re-simulated the quarantined cell: %+v", r2.sup)
	}
}

// TestStoredRecordOutranksQuarantine: a verified record is a successful
// run of its exact cell, so the runner serves it even when a quarantine
// verdict names the same key.
func TestStoredRecordOutranksQuarantine(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells"))
	if err := s.Put("k", &core.Stats{Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(store.QuarantineEntry{Key: "k", Label: "cell", Reason: "machine error twice"}); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(kernels.Small)
	r.Store = s
	out := r.superviseCell("k", "cell", func() (*core.Stats, error) {
		t.Error("simulated a cell the store holds")
		return nil, errors.New("not reached")
	})
	if out.err != nil || out.source != "store" || out.st.Cycles != 7 {
		t.Errorf("outcome = %+v, want the stored record (source store)", out)
	}
}

// TestQuarantineCarriesBundle: with a crash dir configured, the
// quarantine verdict names a replayable crash bundle.
func TestQuarantineCarriesBundle(t *testing.T) {
	r := NewRunner(kernels.Small)
	r.CrashDir = t.TempDir()
	_, err := probe(r, 1, func(r *Runner) error {
		cfg := r.config(2)
		cfg.MaxCycles = 10
		_, err := r.run(kernels.GroupI()[0], cfg)
		return err
	})
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want QuarantinedError", err)
	}
	if qe.Bundle == "" {
		t.Fatal("quarantine carries no crash bundle despite CrashDir")
	}
	if _, err := os.Stat(filepath.Join(qe.Bundle, "manifest.json")); err != nil {
		t.Errorf("bundle %s is not on disk: %v", qe.Bundle, err)
	}
}

// TestQuarantinedCellRendersInTable: end to end, a poisoned cell must
// become a visible QUARANTINED entry in the rendered table — not a
// silent hole, and not a failed sweep.
func TestQuarantinedCellRendersInTable(t *testing.T) {
	poisoned := Experiment{
		Name:  "poisoned",
		Title: "table with one quarantined cell",
		Run: func(r *Runner) ([]Table, error) {
			tab := Table{Title: "poisoned", Headers: []string{"Benchmark", "Cycles"}}
			for i, b := range kernels.GroupI()[:2] {
				cfg := r.config(2)
				if i == 0 {
					cfg.MaxCycles = 10 // this cell trips the runaway guard
				}
				v, err := cycleCell(r, b, cfg)
				if err != nil {
					return nil, err
				}
				tab.Rows = append(tab.Rows, []string{b.Name, v})
			}
			return []Table{tab}, nil
		},
	}
	r := NewRunner(kernels.Small)
	tables, _, err := r.RunExperiments([]Experiment{poisoned}, 2)
	if err != nil {
		t.Fatalf("a quarantined cell failed the sweep: %v", err)
	}
	rows := tables[0][0].Rows
	if rows[0][1] != "QUARANTINED" {
		t.Errorf("poisoned cell rendered %q, want QUARANTINED", rows[0][1])
	}
	if rows[1][1] == "QUARANTINED" || rows[1][1] == "" {
		t.Errorf("healthy cell rendered %q", rows[1][1])
	}
}

// TestCoverageCellsCommitToStore: cover.Set marshals by stable event
// name now, so cells carrying coverage commit like any other cell
// (the end-to-end round trip is TestCoverageCellsPersist).
func TestCoverageCellsCommitToStore(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells"))
	r := NewRunner(kernels.Small)
	r.Store = s
	out := r.superviseCell("k", "cov", func() (*core.Stats, error) {
		st := &core.Stats{Cycles: 3}
		st.Coverage = cover.NewSet()
		return st, nil
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := s.Stats().Commits; got != 1 {
		t.Errorf("coverage cell commits = %d, want 1", got)
	}
}
