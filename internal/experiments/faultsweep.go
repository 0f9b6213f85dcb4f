package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
)

// The fault-sweep experiment measures degradation curves: how gracefully
// each SDSP mechanism absorbs injected adversity. Every axis attacks one
// mechanism the paper's throughput claims rest on — the cache's single
// outstanding refill, the writeback bus, the shared 2-bit predictor,
// selective squash, the synchronization controller, and the fetch
// policies — while the combined axis stresses all of them at once.
// Architectural results stay golden-validated at every cell; only the
// cycle counts move.

// sweepSeed fixes the fault schedules, making every sweep cell (and its
// ID) deterministic.
const sweepSeed = 1996

// sweepAxis is one independently swept fault dimension: intensity x in
// (0,1] maps to an injector rate mix.
type sweepAxis struct {
	name  string
	rates func(x float64) fault.Rates
}

// sweepAxes sweeps each injector channel family independently, then all
// of them combined. Secondary rates are scaled down so every axis stays
// runnable at the top intensity.
var sweepAxes = []sweepAxis{
	{"cache-miss", func(x float64) fault.Rates { return fault.Rates{CacheMiss: x} }},
	{"writeback", func(x float64) fault.Rates { return fault.Rates{Writeback: x} }},
	{"predictor", func(x float64) fault.Rates { return fault.Rates{FlipBTB: x} }},
	{"squash", func(x float64) fault.Rates { return fault.Rates{Squash: x / 2} }},
	{"sync", func(x float64) fault.Rates { return fault.Rates{SyncGrant: x, SyncWakeup: x / 2} }},
	{"fetch", func(x float64) fault.Rates { return fault.Rates{FetchMis: x, FetchBlock: x / 2} }},
	{"store-slot", func(x float64) fault.Rates { return fault.Rates{SBHold: x} }},
	{"commit-window", func(x float64) fault.Rates { return fault.Rates{CWShrink: x} }},
	{"combined", func(x float64) fault.Rates {
		return fault.Rates{
			CacheMiss: x / 2, Writeback: x / 4, FlipBTB: x / 2, Squash: x / 8,
			SyncGrant: x / 4, SyncWakeup: x / 8, FetchMis: x / 4, FetchBlock: x / 8,
			SBHold: x / 4, CWShrink: x / 8,
		}
	}},
}

// DegradationPoint is one cell of a degradation curve.
type DegradationPoint struct {
	Intensity      float64 `json:"intensity"`
	Cycles         uint64  `json:"cycles"`
	IPC            float64 `json:"ipc"`
	DegradationPct float64 `json:"degradation_pct"` // slowdown vs the fault-free baseline
	Injected       uint64  `json:"injected"`        // total injections across channels
}

// DegradationCurve is one kernel × threads × policy × axis series,
// faultsweep's export.
type DegradationCurve struct {
	Kernel         string             `json:"kernel"`
	Threads        int                `json:"threads"`
	Policy         string             `json:"policy"`
	Axis           string             `json:"axis"`
	BaselineCycles uint64             `json:"baseline_cycles"`
	Points         []DegradationPoint `json:"points"`
}

// sweepPlan scopes the grid to the problem scale: CI sweeps a
// representative kernel pair on a tiny grid; paper scale sweeps every
// kernel across the full thread and policy range.
type sweepPlan struct {
	kernels     []*kernels.Benchmark
	threads     []int
	policies    []core.FetchPolicy
	intensities []float64
}

func planFor(scale kernels.Scale) (sweepPlan, error) {
	if scale == kernels.Paper {
		return sweepPlan{
			kernels:     kernels.All(),
			threads:     []int{1, 2, 4, 6},
			policies:    []core.FetchPolicy{core.TrueRR, core.MaskedRR, core.CondSwitch, core.ICount},
			intensities: []float64{0.01, 0.05, 0.1, 0.2, 0.4},
		}, nil
	}
	var ks []*kernels.Benchmark
	for _, name := range []string{"LL1", "Water"} { // one Livermore loop, one sync-heavy kernel
		b, err := kernels.Get(name)
		if err != nil {
			return sweepPlan{}, err
		}
		ks = append(ks, b)
	}
	return sweepPlan{
		kernels:     ks,
		threads:     []int{1, defaultThreads},
		policies:    []core.FetchPolicy{core.TrueRR, core.ICount},
		intensities: []float64{0.05, 0.2},
	}, nil
}

// sweepCell runs one (kernel, threads, policy, axis, intensity) cell.
func (r *Runner) sweepCell(b *kernels.Benchmark, n int, pol core.FetchPolicy, ax sweepAxis, x float64) (*core.Stats, error) {
	cfg := r.config(n)
	cfg.FetchPolicy = pol
	cfg.Injector = fault.New(sweepSeed, ax.rates(x))
	return r.run(b, cfg)
}

// degradation is the percentage slowdown of a faulted run vs its
// baseline.
func degradation(st, base *core.Stats) float64 {
	return 100 * (float64(st.Cycles)/float64(base.Cycles) - 1)
}

// faultCurves simulates the full grid: one curve per kernel × threads ×
// policy × axis, the fault-free baseline first.
func faultCurves(r *Runner) ([]DegradationCurve, error) {
	plan, err := planFor(r.Scale)
	if err != nil {
		return nil, err
	}
	var curves []DegradationCurve
	for _, b := range plan.kernels {
		for _, n := range plan.threads {
			for _, pol := range plan.policies {
				cfg := r.config(n)
				cfg.FetchPolicy = pol
				base, err := r.run(b, cfg)
				if err != nil {
					return nil, err
				}
				for _, ax := range sweepAxes {
					curve := DegradationCurve{
						Kernel: b.Name, Threads: n, Policy: pol.String(),
						Axis: ax.name, BaselineCycles: base.Cycles,
					}
					for _, x := range plan.intensities {
						st, err := r.sweepCell(b, n, pol, ax, x)
						if err != nil {
							return nil, fmt.Errorf("axis %s x=%g: %w", ax.name, x, err)
						}
						curve.Points = append(curve.Points, DegradationPoint{
							Intensity:      x,
							Cycles:         st.Cycles,
							IPC:            st.IPC(),
							DegradationPct: degradation(st, base),
							Injected:       st.Faults.Total(),
						})
					}
					curves = append(curves, curve)
				}
			}
		}
	}
	return curves, nil
}

// FaultSweep renders three slices of the grid's curves, all at the
// paper's 4 threads.
func FaultSweep(r *Runner) ([]Table, error) {
	plan, err := planFor(r.Scale)
	if err != nil {
		return nil, err
	}
	curves, err := faultCurves(r)
	if err != nil {
		return nil, err
	}
	points := func(b *kernels.Benchmark, pol core.FetchPolicy, axis string) []DegradationPoint {
		for _, c := range curves {
			if c.Kernel == b.Name && c.Threads == defaultThreads && c.Policy == pol.String() && c.Axis == axis {
				return c.Points
			}
		}
		return nil
	}

	byAxis := Table{
		Title:   "Fault sweep: IPC degradation by axis (4 threads, TrueRR, % slowdown vs fault-free)",
		Headers: []string{"Benchmark", "Axis"},
	}
	byPolicy := Table{
		Title:   "Fault sweep: combined-axis degradation by fetch policy (4 threads, % slowdown)",
		Headers: []string{"Benchmark", "Policy"},
	}
	counts := Table{
		Title:   "Fault sweep: injected events (4 threads, TrueRR, summed across benchmarks)",
		Headers: []string{"Axis"},
	}
	for _, x := range plan.intensities {
		col := fmt.Sprintf("x=%g", x)
		byAxis.Headers = append(byAxis.Headers, col)
		byPolicy.Headers = append(byPolicy.Headers, col)
		counts.Headers = append(counts.Headers, col)
	}

	// Table 1: per-kernel degradation along each axis at the paper's
	// default operating point.
	for _, b := range plan.kernels {
		for _, ax := range sweepAxes {
			row := []string{b.Name, ax.name}
			for _, p := range points(b, core.TrueRR, ax.name) {
				row = append(row, fmt.Sprintf("%+.1f%%", p.DegradationPct))
			}
			byAxis.Rows = append(byAxis.Rows, row)
		}
	}
	byAxis.Notes = append(byAxis.Notes,
		fmt.Sprintf("fault schedules are seed=%d; every cell still passes golden validation", sweepSeed))

	// Table 2: how each fetch policy absorbs the combined storm.
	combined := sweepAxes[len(sweepAxes)-1]
	for _, b := range plan.kernels {
		for _, pol := range plan.policies {
			row := []string{b.Name, pol.String()}
			for _, p := range points(b, pol, combined.name) {
				row = append(row, fmt.Sprintf("%+.1f%%", p.DegradationPct))
			}
			byPolicy.Rows = append(byPolicy.Rows, row)
		}
	}

	// Table 3: raw injection volume, confirming every axis actually fired.
	for _, ax := range sweepAxes {
		injected := make([]uint64, len(plan.intensities))
		for _, b := range plan.kernels {
			for i, p := range points(b, core.TrueRR, ax.name) {
				injected[i] += p.Injected
			}
		}
		row := []string{ax.name}
		for _, n := range injected {
			row = append(row, fmt.Sprint(n))
		}
		counts.Rows = append(counts.Rows, row)
	}

	return []Table{byAxis, byPolicy, counts}, nil
}
