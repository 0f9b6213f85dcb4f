package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The paper's conclusions are qualitative, and EXPERIMENTS.md gives a
// verdict for each. paperClaims writes every verdict as a predicate over
// the typed rows the tables render from (the experiments' exports), and
// TestPaperClaims checks them at Paper scale, where EXPERIMENTS.md
// reports them. A claim that reproduces, or a known deviation stated as
// measured, must hold; a claim that fails as the paper words it is a
// recorded finding and must keep failing until EXPERIMENTS.md is
// rewritten. Either way a model change that flips a conclusion fails
// here, not only as a golden diff. Predicates are never tuned to pass.

// verdict is what EXPERIMENTS.md records for a claim.
type verdict int

const (
	reproduces verdict = iota // the paper's claim holds
	deviation                 // a known deviation from the paper, stated as measured
	finding                   // the paper's claim, as worded, fails
)

// claim is one EXPERIMENTS.md verdict as a predicate. check reports
// whether the predicate holds, with the numbers behind it; an error
// (a quarantined or missing cell) fails the claim outright.
type claim struct {
	name    string
	verdict verdict
	check   func(x exports) (holds bool, detail string, err error)
}

// exports are a sweep's typed rows, keyed by experiment.
type exports map[string]any

// grids returns the grids of the named experiments, in order.
func (x exports) grids(names ...string) []Grid {
	var gs []Grid
	for _, n := range names {
		g, _ := x[n].([]Grid)
		gs = append(gs, g...)
	}
	return gs
}

// value returns the reading of kernel's cell in column of g. A missing
// or quarantined cell is an error, never a number.
func value(g Grid, kernel, column string) (float64, error) {
	for _, row := range g.Rows {
		for i, c := range g.Columns {
			if row.Kernel == kernel && c == column {
				if row.Readings[i].Quarantined {
					return 0, fmt.Errorf("%s: %s / %s is quarantined", g.Title, kernel, column)
				}
				return row.Readings[i].Value, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no cell %s / %s", g.Title, kernel, column)
}

// values reads kernel's cells in cols of g.
func values(g Grid, kernel string, cols ...string) ([]float64, error) {
	vs := make([]float64, len(cols))
	for i, c := range cols {
		var err error
		if vs[i], err = value(g, kernel, c); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// kernelsWhere counts the kernels of gs for which pred holds, and
// names them.
func kernelsWhere(gs []Grid, pred func(g Grid, kernel string) (bool, error)) (n, of int, names string, err error) {
	var hit []string
	for _, g := range gs {
		for _, row := range g.Rows {
			ok, err := pred(g, row.Kernel)
			if err != nil {
				return 0, 0, "", err
			}
			if ok {
				hit = append(hit, row.Kernel)
			}
			of++
		}
	}
	return len(hit), of, strings.Join(hit, " "), nil
}

var paperClaims = []claim{
	{"fig3-4_policies_within_10pct_on_most", finding, func(x exports) (bool, string, error) {
		n, of, names, err := kernelsWhere(x.grids("fig3", "fig4"), func(g Grid, k string) (bool, error) {
			vs, err := values(g, k, "TrueRR", "MaskedRR", "CSwitch")
			if err != nil {
				return false, err
			}
			lo, hi := math.Inf(1), 0.0
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			return hi/lo-1 <= 0.10, nil
		})
		return 2*n > of, fmt.Sprintf("the three policies are within 10%% of each other on %d of %d kernels: %s", n, of, names), err
	}},
	{"fig5-6_LL5_slower_at_every_thread_step", reproduces, func(x exports) (bool, string, error) {
		gs := x.grids("fig5")
		if len(gs) == 0 {
			return false, "", fmt.Errorf("no fig5 rows")
		}
		vs, err := values(gs[0], "LL5", gs[0].Columns...)
		if err != nil {
			return false, "", err
		}
		holds := true
		for i := 1; i < len(vs); i++ {
			holds = holds && vs[i] > vs[i-1]
		}
		return holds, fmt.Sprintf("LL5 cycles by threads: %v", vs), nil
	}},
	{"fig7-8_groupI_direct_equals_associative", deviation, func(x exports) (bool, string, error) {
		avg, _ := x["fig7"].([]CacheRow)
		hits, _ := x["table3"].([]CacheRow)
		for _, rows := range [][]CacheRow{avg, hits} {
			for _, r := range rows {
				if r.Group == "I" && r.Direct != r.Associative {
					return false, fmt.Sprintf("%d threads: direct %v, associative %v", r.Threads, r.Direct, r.Associative), nil
				}
			}
		}
		return len(avg) > 0 && len(hits) > 0, fmt.Sprintf("equal average cycles and hit rates at all %d thread counts", len(avg)), nil
	}},
	{"fig7-8_groupII_associative_ahead_overall", reproduces, func(x exports) (bool, string, error) {
		rows, _ := x["fig8"].([]CacheRow)
		var d, a float64
		for _, r := range rows {
			d += r.Direct
			a += r.Associative
		}
		return len(rows) > 0 && a < d, fmt.Sprintf("mean cycles over 1-6 threads: direct %.0f, associative %.0f", d/6, a/6), nil
	}},
	{"fig9-10_mt_advantage_shrinks_with_depth_on_most", finding, func(x exports) (bool, string, error) {
		n, of, names, err := kernelsWhere(x.grids("fig9", "fig10"), func(g Grid, k string) (bool, error) {
			prev := math.Inf(1)
			for _, d := range suDepths {
				vs, err := values(g, k, fmt.Sprintf("1T SU%d", d), fmt.Sprintf("4T SU%d", d))
				if err != nil {
					return false, err
				}
				if adv := vs[0] / vs[1]; adv < prev {
					prev = adv
				} else {
					return false, nil
				}
			}
			return true, nil
		})
		return 2*n > of, fmt.Sprintf("the 4-thread speedup over 1 thread falls at every deeper SU on %d of %d kernels: %s", n, of, names), err
	}},
	{"fig9-10_16_to_32_is_the_big_step", reproduces, func(x exports) (bool, string, error) {
		n, of, names, err := kernelsWhere(x.grids("fig9", "fig10"), func(g Grid, k string) (bool, error) {
			for _, t := range []string{"4T", "1T"} {
				vs, err := values(g, k, t+" SU16", t+" SU32", t+" SU48", t+" SU64")
				if err != nil {
					return false, err
				}
				if vs[0]-vs[1] <= vs[2]-vs[3] {
					return false, nil
				}
			}
			return true, nil
		})
		return n == of, fmt.Sprintf("16->32 gains more cycles than 48->64, at 4 and 1 threads, on %d of %d kernels: %s", n, of, names), err
	}},
	{"fig11-12_enhanced_FUs_raise_mt_speedup", reproduces, func(x exports) (bool, string, error) {
		holds, detail := true, ""
		for i, g := range x.grids("fig11", "fig12") {
			n, of, names, err := kernelsWhere([]Grid{g}, func(g Grid, k string) (bool, error) {
				vs, err := values(g, k, "Base", "4 Threads", "Base++", "4 Threads++")
				if err != nil {
					return false, err
				}
				return vs[2]/vs[3] > vs[0]/vs[1], nil
			})
			if err != nil {
				return false, "", err
			}
			holds = holds && 2*n > of
			detail += fmt.Sprintf("Group %s: %d of %d (%s); ", groups[i].name, n, of, names)
		}
		return holds && detail != "", detail + "the kernels whose 4-thread speedup over 1 thread grows under ++", nil
	}},
	{"table4_load2_most_used_extra_unit", reproduces, func(x exports) (bool, string, error) {
		rows, _ := x["table4"].([]UnitUsage)
		top := map[string]UnitUsage{}
		for _, r := range rows {
			if r.Percent > top[r.Group].Percent {
				top[r.Group] = r
			}
		}
		i, ii := top["I"], top["II"]
		return i.Unit == "Load #2" && ii.Unit == "Load #2",
			fmt.Sprintf("most used: Group I %s (%.2f%%), Group II %s (%.2f%%)", i.Unit, i.Percent, ii.Unit, ii.Percent), nil
	}},
	{"fig13-14_flexible_commit_never_loses", reproduces, flexibleCommitNeverLoses},
	{"summary_LL5_the_only_negative_peak", reproduces, func(x exports) (bool, string, error) {
		var neg []string
		rows, _ := x["summary"].([]Peak)
		for _, p := range rows {
			if p.Speedup < 0 {
				neg = append(neg, fmt.Sprintf("%s %+.1f%%", p.Kernel, 100*p.Speedup))
			}
		}
		return len(neg) == 1 && strings.HasPrefix(neg[0], "LL5 "), fmt.Sprintf("negative peaks: %v", neg), nil
	}},
}

// flexibleCommitNeverLoses is Figs 13–14's claim: committing from four
// blocks is never slower than lowest-only commit and stalls the SU less,
// on every kernel.
func flexibleCommitNeverLoses(x exports) (bool, string, error) {
	n, of, _, err := kernelsWhere(x.grids("fig13", "fig14"), func(g Grid, k string) (bool, error) {
		vs, err := values(g, k, "Multiple (4 blocks)", "Lowest only", "SU stalls (multi)", "SU stalls (lowest)")
		if err != nil {
			return false, err
		}
		return vs[0] <= vs[1] && vs[2] < vs[3], nil
	})
	return of > 0 && n == of, fmt.Sprintf("no slower, with fewer SU stalls, on %d of %d kernels", n, of), err
}

// TestPaperClaims checks every EXPERIMENTS.md verdict at Paper scale.
func TestPaperClaims(t *testing.T) {
	x := exports(paperSweep(t).exports)
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) { checkClaim(t, c, x) })
	}
}

// TestFlexibleCommitClaim: flexible commit never loses (Figs 13–14), at
// Small scale as well as at Paper scale.
func TestFlexibleCommitClaim(t *testing.T) {
	j1, _ := sweeps(t)
	c := claim{"fig13-14_flexible_commit_never_loses", reproduces, flexibleCommitNeverLoses}
	t.Run("small", func(t *testing.T) { checkClaim(t, c, exports(j1.exports)) })
	t.Run("paper", func(t *testing.T) { checkClaim(t, c, exports(paperSweep(t).exports)) })
}

func checkClaim(t *testing.T, c claim, x exports) {
	t.Helper()
	holds, detail, err := c.check(x)
	if err != nil {
		t.Fatalf("%s cannot be checked: %v", c.name, err)
	}
	t.Logf("holds=%v: %s", holds, detail)
	if want := c.verdict != finding; holds != want {
		t.Errorf("%s holds=%v, but EXPERIMENTS.md records it as %s (%s); if the model change is intended, rewrite the verdict there and here",
			c.name, holds, []string{"reproducing", "a known deviation", "a finding that fails as worded"}[c.verdict], detail)
	}
}
