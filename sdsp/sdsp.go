// Package sdsp is the public API of the multithreaded SDSP superscalar
// simulator, a reproduction of Gulati & Bagherzadeh, "Performance Study
// of a Multithreaded Superscalar Microprocessor" (HPCA 1996).
//
// The typical flow is three lines: pick a workload, pick a
// configuration, run.
//
//	obj, _ := sdsp.Workload("Matrix", sdsp.WorkloadParams{Threads: 4})
//	res, _ := sdsp.Run(obj, sdsp.DefaultConfig(4))
//	fmt.Println(res.Cycles, res.IPC())
//
// Custom programs are assembled from SDSP-32 assembly source with
// Assemble, and machines can be stepped cycle-by-cycle through NewMachine
// for fine-grained inspection.
package sdsp

import (
	"fmt"
	"io"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/kernels"
	"repro/internal/loader"
	"repro/internal/minic"
)

// Config is the machine configuration (paper Table 2). It aliases the
// core configuration type; construct with DefaultConfig and adjust.
type Config = core.Config

// Stats is the result of a run.
type Stats = core.Stats

// Machine is a configured SDSP core with a loaded program.
type Machine = core.Machine

// Object is a linked SDSP-32 program.
type Object = loader.Object

// MachineError is the structured diagnostic a failed run returns: the
// fault kind (runaway, deadlock, invariant violation, memory fault),
// the faulting cycle, pipeline phase, thread, PC, and a state dump.
// Retrieve it with errors.As.
type MachineError = core.MachineError

// FaultInjector perturbs timing-only machine state for robustness
// testing; set Config.Injector to one (see ParseFaultSpec).
type FaultInjector = core.FaultInjector

// NoWatchdog disables the forward-progress watchdog when assigned to
// Config.Watchdog.
const NoWatchdog = core.NoWatchdog

// ParseFaultSpec builds a deterministic fault injector from a spec like
// "seed=42,miss=0.01,wb=0.01,flip=0.02,squash=0.005" or a preset name
// ("light", "medium", "heavy", "cache-storm", "wb-storm", "bpred-storm",
// "squash-storm", optionally with ",seed=N"). An empty spec or "none"
// returns (nil, nil). Under any schedule the machine must still produce
// memory identical to the functional reference — faults are timing-only.
func ParseFaultSpec(spec string) (FaultInjector, error) {
	s, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil // a typed-nil FaultInjector would look non-nil to core
	}
	return s, nil
}

// FaultPresets lists the named fault-schedule presets.
func FaultPresets() []string { return fault.Presets() }

// Fetch policies (paper §5.1, plus the §6.1 "judicious" ICount
// extension and its two throttled variants — see docs/FRONTEND.md).
const (
	TrueRR         = core.TrueRR
	MaskedRR       = core.MaskedRR
	CondSwitch     = core.CondSwitch
	ICount         = core.ICount
	ICountFeedback = core.ICountFeedback
	ConfThrottle   = core.ConfThrottle
)

// Branch predictor kinds (Config.Predictor). The zero value is the
// paper's 2-bit counter, so existing configurations are unchanged.
const (
	PredTwoBit       = core.PredTwoBit
	PredGshare       = core.PredGshare
	PredGshareThread = core.PredGshareThread
	PredTAGE         = core.PredTAGE
)

// ParseFetchPolicy maps a CLI spelling (truerr, masked, cswitch,
// icount, icount-fb, confthrottle) to a fetch policy.
func ParseFetchPolicy(s string) (core.FetchPolicy, error) { return core.ParseFetchPolicy(s) }

// ParsePredictor maps a CLI spelling (2bit, gshare, gshare-pt, tage)
// to a predictor kind.
func ParsePredictor(s string) (core.PredictorKind, error) { return core.ParsePredictor(s) }

// Commit policies (paper §5.6).
const (
	FlexibleCommit = core.FlexibleCommit
	LowestOnly     = core.LowestOnly
)

// DefaultConfig returns the paper's default hardware configuration for
// the given number of resident threads.
func DefaultConfig(threads int) Config {
	cfg := core.DefaultConfig()
	cfg.Threads = threads
	return cfg
}

// EnhancedFUs returns the paper's "++" functional unit configuration.
func EnhancedFUs() core.FUConfig { return core.EnhancedFUs() }

// Assemble translates SDSP-32 assembly into a runnable object.
func Assemble(src string) (*Object, error) { return asm.Assemble(src) }

// CompileMiniC compiles MiniC source (docs/MINIC.md) for the given
// register budget — the paper's 128/N partition knob. A regs of 0 uses
// the 6-thread-safe default of 21.
func CompileMiniC(src string, regs int) (*Object, error) {
	return minic.CompileToObject(src, minic.Options{Regs: regs})
}

// Disassemble renders an object's text segment.
func Disassemble(obj *Object) []string { return asm.Disassemble(obj.Text) }

// WorkloadParams selects a benchmark build.
type WorkloadParams struct {
	Threads int
	// PaperScale selects the experiment-harness problem sizes; the
	// default is the small test scale.
	PaperScale bool
}

// Workloads lists the names of the paper's eleven benchmarks.
func Workloads() []string {
	var names []string
	for _, b := range kernels.All() {
		names = append(names, b.Name)
	}
	return names
}

// Workload builds one of the paper's benchmarks.
func Workload(name string, p WorkloadParams) (*Object, error) {
	b, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	return b.Build(kernelParams(p))
}

// CheckWorkload validates a finished machine's memory against the
// benchmark's golden model.
func CheckWorkload(name string, m *Machine, obj *Object, p WorkloadParams) error {
	b, err := kernels.Get(name)
	if err != nil {
		return err
	}
	return b.Check(m.Memory(), obj, kernelParams(p))
}

func kernelParams(p WorkloadParams) kernels.Params {
	scale := kernels.Small
	if p.PaperScale {
		scale = kernels.Paper
	}
	return kernels.Params{Threads: p.Threads, Scale: scale}
}

// Mix describes a heterogeneous multiprogrammed workload: several
// programs resident at once, each in its own 2 MiB memory window with an
// independent thread group and register budget. Run one by setting
// Config.Mix and passing a nil object to NewMachine/Run, or use the
// RunMix/VerifyMix helpers.
type Mix = loader.Mix

// MixSlot is one program of a Mix: the object, how many threads run it,
// and its per-thread register budget (0 = an equal 128/N share).
type MixSlot = loader.Slot

// NewMixMachine builds a machine running mix under cfg (whose Mix and
// Threads fields are set from the mix), for cycle-stepping.
func NewMixMachine(mix *Mix, cfg Config) (*Machine, error) {
	cfg.Mix = mix
	cfg.Threads = mix.NumThreads()
	return core.New(nil, cfg)
}

// RunMix executes a heterogeneous mix to completion under cfg.
func RunMix(mix *Mix, cfg Config) (*Stats, error) {
	m, err := NewMixMachine(mix, cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// RunMixFunctional interprets a mix on the in-order reference simulator.
func RunMixFunctional(mix *Mix) (*funcsim.Sim, error) {
	return funcsim.RunMix(mix, 500_000_000)
}

// NewMachine builds a machine without running it, for cycle-stepping.
func NewMachine(obj *Object, cfg Config) (*Machine, error) { return core.New(obj, cfg) }

// Trace returns a sink printing the pipeline trace of cycles 1 through
// last to w; attach it with Machine.Observe.
func Trace(w io.Writer, last uint64) *cover.Trace { return cover.NewTrace(w, last) }

// Run executes obj to completion under cfg and returns statistics.
func Run(obj *Object, cfg Config) (*Stats, error) {
	m, err := core.New(obj, cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// RunFunctional interprets obj on the in-order reference simulator,
// returning it for state inspection. Useful to sanity-check custom
// programs before timing them.
func RunFunctional(obj *Object, threads int) (*funcsim.Sim, error) {
	return funcsim.RunProgram(obj, threads, 500_000_000)
}

// Speedup computes the paper's speedup metric between two cycle counts.
func Speedup(multiCycles, singleCycles uint64) float64 {
	return core.Speedup(multiCycles, singleCycles)
}

// Verify runs obj on both simulators and reports any divergence in
// final memory — the repository's core correctness invariant. It is
// VerifyMix on the one-slot mix of obj.
func Verify(obj *Object, cfg Config) error {
	return VerifyMix(loader.SoloMix(obj, cfg.Threads), cfg)
}

// VerifyMix runs a mix on both simulators: the full stacked memory —
// every slot's window — must match word for word, so any cross-slot leak
// shows up even when each program's own results look right.
func VerifyMix(mix *Mix, cfg Config) error {
	ref, err := funcsim.RunMix(mix, 500_000_000)
	if err != nil {
		return fmt.Errorf("functional run: %w", err)
	}
	m, err := NewMixMachine(mix, cfg)
	if err != nil {
		return err
	}
	if _, err := m.Run(); err != nil {
		return fmt.Errorf("pipeline run: %w", err)
	}
	return compareMemory(ref, m)
}

func compareMemory(ref *funcsim.Sim, m *Machine) error {
	refMem, gotMem := ref.Memory(), m.Memory()
	if refMem.Size() != gotMem.Size() {
		return fmt.Errorf("memory sizes diverge: pipeline %d words, functional %d words",
			gotMem.Size()/4, refMem.Size()/4)
	}
	if addr, got, want, differ := gotMem.Diff(refMem); differ {
		return fmt.Errorf("memory diverges at %#x: pipeline %#x, functional %#x", addr, got, want)
	}
	return nil
}
