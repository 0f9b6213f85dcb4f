package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// faultCellCounts runs one heavily faulted cell for each of the two
// store-pressure sweep axes through the full declare/schedule/assemble
// pipeline at the given worker count and returns the per-channel fault
// maps the cells report.
func faultCellCounts(t *testing.T, jobs int) map[string]core.FaultCounts {
	t.Helper()
	got := map[string]core.FaultCounts{}
	_, err := probe(NewRunner(kernels.Small), jobs, func(r *Runner) error {
		for _, ax := range sweepAxes {
			if ax.name != "store-slot" && ax.name != "commit-window" {
				continue
			}
			st, err := r.sweepCell(kernels.LL1(), 2, core.TrueRR, ax, 0.5)
			if err != nil {
				return err
			}
			got[ax.name] = st.Faults
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The per-channel fault maps of a cached cell must be identical whether
// the cell ran on the sequential or the 8-way pipeline, each dedicated
// sweep axis must account its injections under exactly its own channel
// key, and Total must agree with the per-channel sum.
func TestFaultChannelMapsAcrossWorkers(t *testing.T) {
	j1 := faultCellCounts(t, 1)
	j8 := faultCellCounts(t, 8)
	if !reflect.DeepEqual(j1, j8) {
		t.Fatalf("per-channel fault maps differ between -j 1 and -j 8:\n%v\nvs\n%v", j1, j8)
	}
	want := map[string]string{
		"store-slot":    core.ChanStoreSlotHold,
		"commit-window": core.ChanCommitShrink,
	}
	for ax, ch := range want {
		counts := j1[ax]
		if counts[ch] == 0 {
			t.Errorf("%s axis never injected on channel %q: %v", ax, ch, counts)
		}
		if len(counts) != 1 {
			t.Errorf("%s axis leaked onto other channels: %v", ax, counts)
		}
		var sum uint64
		for _, n := range counts {
			sum += n
		}
		if counts.Total() != sum {
			t.Errorf("%s: Total() = %d, want per-channel sum %d", ax, counts.Total(), sum)
		}
	}
}
