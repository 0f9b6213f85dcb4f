package experiments

import (
	"fmt"
	"slices"
)

// matrixC is the Matrix benchmark expressed in MiniC (24×24, the paper
// scale), with the same row partitioning as the hand-written kernel.
const matrixC = `
int n = 24;
float a[576];
float b[576];
float c[576];

void main() {
	int i; int j; int k; int lo; int hi; float acc;
	lo = tid() * n / nth();
	hi = (tid() + 1) * n / nth();
	// Deterministic inputs (the hand kernel bakes its data; here the
	// program generates it, also in parallel).
	for (i = lo; i < hi; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			a[i * n + j] = itof((i * 7 + j * 3) % 11) * 0.25 - 1.0;
			b[i * n + j] = itof((i * 5 + j * 13) % 9) * 0.5 - 2.0;
		}
	}
	barrier();
	for (i = lo; i < hi; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			acc = 0.0;
			for (k = 0; k < n; k = k + 1) {
				acc = acc + a[i * n + k] * b[k * n + j];
			}
			c[i * n + j] = acc;
		}
	}
}
`

// dotC is an LL3-style inner product in MiniC.
const dotC = `
int n = 768;
float xs[768];
float zs[768];
float partial[6];
float q;

void main() {
	int i; int lo; int hi; float acc;
	lo = tid() * n / nth();
	hi = (tid() + 1) * n / nth();
	for (i = lo; i < hi; i = i + 1) {
		xs[i] = itof(i % 23) * 0.125;
		zs[i] = itof(i % 19) * 0.25;
	}
	barrier();
	acc = 0.0;
	for (i = lo; i < hi; i = i + 1) {
		acc = acc + xs[i] * zs[i];
	}
	partial[tid()] = acc;
	barrier();
	if (tid() == 0) {
		acc = 0.0;
		for (i = 0; i < nth(); i = i + 1) { acc = acc + partial[i]; }
		q = acc;
	}
}
`

// compilerWorkload is one of the study's programs: a MiniC source and
// the hand-written kernel it reimplements.
type compilerWorkload struct{ name, hand, src string }

var compilerWorkloads = []compilerWorkload{
	{"Matrix", "Matrix", matrixC},
	{"Inner product", "LL3", dotC},
}

// compilerThreads and regBudgets are the study's thread counts and
// register budgets.
var (
	compilerThreads = []int{1, 4}
	regBudgets      = []int{9, 12, 16, 21, 32, 64, 128}
)

// compilerStudy measures the toolchain dimension the paper only
// mentions in passing: compiled code vs hand-scheduled assembly, and
// the cost of shrinking the register budget (the 128/N partition). Its
// compiled cells are workload × threads × budget; a budget above 128/N,
// which the partition cannot grant, is a hole.
func compilerStudy(*Runner) ([]*cube, build) {
	hand := newCube(along(compilerWorkloads, func(c *cellSpec, w compilerWorkload) { runKernel(c, w.hand) }),
		along(compilerThreads, setThreads))
	compiled := newCube(along(compilerWorkloads, func(c *cellSpec, w compilerWorkload) {
		c.label, c.slots[0].MiniC, c.cfg.MaxCycles = "minic/"+w.name, w.src, nonKernelMaxCycles
	}), along(compilerThreads, setThreads), along(regBudgets, func(c *cellSpec, regs int) {
		if c.slots[0].Regs = regs; regs > 128/c.cfg.Threads {
			c.slots = nil
		}
	}))
	return []*cube{hand, compiled}, func() ([]Table, any) {
		quality := Table{
			Title:   "Compiler study: hand-written kernels vs naive MiniC (cycles)",
			Headers: []string{"Workload", "Threads", "Hand-written asm", "MiniC compiled", "Ratio"},
		}
		for w, wl := range compilerWorkloads {
			for t, n := range compilerThreads {
				h, comp := hand.at(w, t), compiled.at(w, t, slices.Index(regBudgets, 128/n))
				quality.Rows = append(quality.Rows, []string{wl.name, fmt.Sprint(n), cycles(h), cycles(comp),
					fmt.Sprintf("%.2fx", float64(comp.Cycles)/float64(h.Cycles))})
			}
		}
		quality.Notes = append(quality.Notes,
			"MiniC keeps locals in stack slots (a naive 1990s compiler); the gap is the cost of not register-allocating, not a simulator artifact.")

		budget := Table{
			Title:   "Compiler study: register budget (the 128/N partition) vs cycles",
			Headers: []string{"Budget (threads' share)", "Matrix 1T", "Matrix 4T", "Dot 1T", "Dot 4T"},
		}
		for b, regs := range regBudgets {
			row := []string{fmt.Sprint(regs)}
			for w := range compilerWorkloads {
				for t := range compilerThreads {
					if st := compiled.at(w, t, b); st != nil {
						row = append(row, cycles(st))
					} else {
						row = append(row, "—") // partition cannot grant this many
					}
				}
			}
			budget.Rows = append(budget.Rows, row)
		}
		budget.Notes = append(budget.Notes,
			"Smaller budgets force expression spills; the knee shows how many registers this code actually needs.")
		return []Table{quality, budget}, nil
	}
}
