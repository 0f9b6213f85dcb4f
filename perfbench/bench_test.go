package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsMatchBenchmarkJSON checks that the benchmark's workloads and
// metrics are exactly those BENCHMARK.json declares, with the same units
// and directions, and that every name is well formed.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		kind     string
		defs     []metricDef
		declared []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(set.defs) != len(set.declared) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", set.kind, len(set.declared), len(set.defs))
			continue
		}
		seen := map[string]bool{}
		for i, d := range set.defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: malformed metric name %q", set.kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %q reported twice", set.kind, d.name)
			}
			seen[d.name] = true
			got := set.declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", set.kind, i, got, d)
			}
		}
	}
}

// TestSelfTimesCoverUnion checks that a span's self time subtracts the
// union of its children, not their sum, when the children overlap.
func TestSelfTimesCoverUnion(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past root's end
	}}
	self := r.selfTimes()
	if want := time.Duration(100 - 60 - 10); self[0] != want {
		t.Errorf("root self time %v, want %v", self[0], want)
	}
	if self[1] != 40 {
		t.Errorf("leaf self time %v, want its duration 40ns", self[1])
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{657, 98}, {66, 84}, {10, 50}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestWorkloadsSmoke runs each workload for one pass with one set-up,
// untraced and then traced, and requires every metric and no failure.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{work: t.TempDir(), jobs: runtime.NumCPU(), setupReps: 1}
			defer e.dropTemp()
			out, err := measure(w, e, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := makeResult(out, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced %s = %v, want > 0", name, m.Value)
				}
			}
			if testing.Short() {
				return
			}
			out, err = measureTraced(w, e, 0, 1, filepath.Join(e.work, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			res, err = makeResult(out, perLayer)
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Metrics["failed_frac"].Value; v != 0 || res.Failed != 0 {
				t.Fatalf("traced: failed_frac %v, %d of %d failed", v, res.Failed, res.Attempted)
			}
			if w.name == "small-warm" {
				if v := res.Metrics["store.hit_frac"].Value; v != 1 {
					t.Errorf("small-warm store.hit_frac = %v, want 1", v)
				}
				if v := res.Metrics["runner.cells_simulated"].Value; v != 0 {
					t.Errorf("small-warm simulated %v cells, want 0", v)
				}
			}
		})
	}
}
