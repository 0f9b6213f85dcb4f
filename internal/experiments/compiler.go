package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
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

// CompilerStudy measures the toolchain dimension the paper only
// mentions in passing: compiled code vs hand-scheduled assembly, and
// the cost of shrinking the register budget (the 128/N partition).
func CompilerStudy(r *Runner) ([]Table, error) {
	quality := Table{
		Title:   "Compiler study: hand-written kernels vs naive MiniC (cycles)",
		Headers: []string{"Workload", "Threads", "Hand-written asm", "MiniC compiled", "Ratio"},
	}
	handMatrix, err := kernels.Get("Matrix")
	if err != nil {
		return nil, err
	}
	handDot, err := kernels.Get("LL3")
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		hand *kernels.Benchmark
		csrc string
	}{
		{"Matrix", handMatrix, matrixC},
		{"Inner product", handDot, dotC},
	} {
		for _, n := range []int{1, 4} {
			hand, err := r.run(row.hand, r.config(n))
			if err != nil {
				return nil, err
			}
			comp, err := r.runMiniC(row.name, row.csrc, r.config(n), 128/n)
			if err != nil {
				return nil, err
			}
			quality.Rows = append(quality.Rows, []string{row.name, fmt.Sprint(n),
				cycles(hand), cycles(comp),
				fmt.Sprintf("%.2fx", float64(comp.Cycles)/float64(hand.Cycles))})
		}
	}
	quality.Notes = append(quality.Notes,
		"MiniC keeps locals in stack slots (a naive 1990s compiler); the gap is the cost of not register-allocating, not a simulator artifact.")

	budget := Table{
		Title:   "Compiler study: register budget (the 128/N partition) vs cycles",
		Headers: []string{"Budget (threads' share)", "Matrix 1T", "Matrix 4T", "Dot 1T", "Dot 4T"},
	}
	for _, regs := range []int{9, 12, 16, 21, 32, 64, 128} {
		row := []string{fmt.Sprint(regs)}
		for _, w := range []struct{ name, src string }{{"Matrix", matrixC}, {"Inner product", dotC}} {
			for _, n := range []int{1, 4} {
				if regs > 128/n {
					row = append(row, "—") // partition cannot grant this many
					continue
				}
				st, err := r.runMiniC(w.name, w.src, r.config(n), regs)
				if err != nil {
					return nil, err
				}
				row = append(row, cycles(st))
			}
		}
		budget.Rows = append(budget.Rows, row)
	}
	budget.Notes = append(budget.Notes,
		"Smaller budgets force expression spills; the knee shows how many registers this code actually needs.")
	return []Table{quality, budget}, nil
}

// runMiniC compiles src with a regs-register budget and simulates it
// under cfg. It is a runner cell like any benchmark run, so the
// parallel scheduler dedupes and fans it out alongside the kernel cells.
func (r *Runner) runMiniC(name, src string, cfg core.Config, regs int) (*core.Stats, error) {
	cfg.MaxCycles = nonKernelMaxCycles
	return r.runCell(cellSpec{label: "minic/" + name, cfg: cfg,
		slots: []cellSlot{{Threads: cfg.Threads, Regs: regs, MiniC: src}}})
}
