package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesInterpolate(t *testing.T) {
	q := quartilesOf([]float64{4, 1, 3, 2, 5})
	if q != (quartiles{2, 3, 4}) {
		t.Errorf("quartiles of 1..5 = %+v, want {2 3 4}", q)
	}
	q = quartilesOf([]float64{1, 2, 3, 4})
	if q != (quartiles{1.75, 2.5, 3.25}) {
		t.Errorf("quartiles of 1..4 = %+v, want {1.75 2.5 3.25}", q)
	}
}

func TestSummarizePairedRule(t *testing.T) {
	base := []float64{10, 11, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3}
	lower := metric{Name: "wall_s", Better: "lower", Bound: 0.25}
	higher := metric{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.25}

	// 9 of 10 pairs better, by far more than the base's spread.
	faster := make([]float64, len(base))
	for i, b := range base {
		faster[i] = b * 0.8
	}
	faster[3] = 11 // one lost pair
	s := summarize(lower, base, faster)
	if s.won != 9 || !s.rule || s.outOfBound {
		t.Errorf("9/10 clear gain: %+v, want won 9, rule holds, in bound", s)
	}

	// Every pair better, but by less than the base's interquartile range.
	slightly := make([]float64, len(base))
	for i, b := range base {
		slightly[i] = b - 0.01
	}
	if s := summarize(lower, base, slightly); s.won != 10 || s.rule {
		t.Errorf("gain inside the spread: %+v, want won 10, rule fails", s)
	}

	// A higher-is-better metric 30% down is out of its 25% bound.
	down := make([]float64, len(base))
	for i, b := range base {
		down[i] = b * 0.7
	}
	if s := summarize(higher, base, down); !s.outOfBound || s.won != 0 {
		t.Errorf("30%% loss: %+v, want out of bound, won 0", s)
	}
	// 20% down stays inside it.
	for i, b := range base {
		down[i] = b * 0.8
	}
	if s := summarize(higher, base, down); s.outOfBound {
		t.Errorf("20%% loss: %+v, want in bound", s)
	}

	// Base runs spread wider than the 25% bound (IQR 0.375 on a median
	// of 1.15): a change 10% slower cannot be told from one 30% slower.
	wide := []float64{1, 0.9, 1.5, 1.2, 1.6, 0.8, 1.3, 1.1, 1.4, 1.0}
	slower := make([]float64, len(wide))
	for i, b := range wide {
		slower[i] = b * 1.1
	}
	if s := summarize(lower, wide, slower); !s.unresolved || s.outOfBound {
		t.Errorf("10%% loss in a wide spread: %+v, want unresolved, in bound", s)
	}
	// Unless every change run reads better than every base run, here
	// by less than the spread, so the paired rule does not decide it.
	for i := range slower {
		slower[i] = 0.79
	}
	if s := summarize(lower, wide, slower); s.unresolved || s.rule {
		t.Errorf("every change run better: %+v, want resolved, rule fails", s)
	}
}

func TestLastResultAndReport(t *testing.T) {
	out := "noise\n{\"host\":{}}\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":2,\"unit\":\"s\"}}}\n"
	ms := []metric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25}}
	res, err := lastResult(strings.NewReader(out), ms)
	if err != nil || !res.Correct || res.Metrics["wall_s"].Value != 2 {
		t.Fatalf("lastResult = %+v, %v", res, err)
	}
	if _, err := lastResult(strings.NewReader("{\"host\":{}}\n"), ms); err == nil {
		t.Error("lastResult accepted output without a result line")
	}
	// A metric the run did not report is an error, not a zero.
	cpu := append(ms, metric{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25})
	if _, err := lastResult(strings.NewReader(out), cpu); err == nil || !strings.Contains(err.Error(), "cpu_s") {
		t.Errorf("lastResult without cpu_s: %v, want an error naming cpu_s", err)
	}
	bad := res
	bad.Failed = 1
	runs := []run{{"w", 0, "base", res}, {"w", 0, "change", bad}}
	var b bytes.Buffer
	if report(&b, ms, []string{"w"}, runs) {
		t.Errorf("report passed a run with a failed cell:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "w change pair 1: correct true, 1 of 3 cells failed") {
		t.Errorf("report does not name the failed run:\n%s", b.String())
	}
}

func TestPickWorkloads(t *testing.T) {
	sp := &spec{}
	for _, n := range []string{"a", "b", "c"} {
		sp.Workloads = append(sp.Workloads, struct {
			Name string `json:"name"`
		}{n})
	}
	if got, _ := pickWorkloads(sp, ""); strings.Join(got, ",") != "a,b,c" {
		t.Errorf("all workloads = %v", got)
	}
	if got, _ := pickWorkloads(sp, "c,a"); strings.Join(got, ",") != "a,c" {
		t.Errorf("c,a = %v, want BENCHMARK.json order a,c", got)
	}
	if got, _ := pickWorkloads(sp, "a"); strings.Join(got, ",") != "a" {
		t.Errorf("a = %v, want only a", got)
	}
	if _, err := pickWorkloads(sp, "nope"); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
