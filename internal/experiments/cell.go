package experiments

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/crash"
	"repro/internal/funcsim"
	"repro/internal/kernels"
	"repro/internal/loader"
	"repro/internal/minic"
	"repro/internal/progen"
)

// cellSpec is one cell of a sweep: everything its simulation depends
// on. Every experiment's cubes list their cells as specs, simulate is
// the one function that runs them, and cellID names them, so equal specs
// are one cell in memory and in the store.
type cellSpec struct {
	label string      // for progress lines and reports; not part of the ID
	cfg   core.Config // the complete machine configuration; Mix is built from slots
	slots []cellSlot
}

// cellSlot is one resident program and the threads that run it: a
// paper kernel built with Params, a MiniC source compiled under a Regs
// register budget, or progen's program for Seed. In a mix, Regs is also
// the slot's per-thread register partition (0 = an equal share); a lone
// program always takes the equal share.
type cellSlot struct {
	Threads int
	Regs    int
	Kernel  string
	Params  kernels.Params
	MiniC   string
	Seed    int64
}

// builtSlot is one slot's program, built once per runner.
type builtSlot struct {
	once  sync.Once
	obj   *loader.Object
	bench *kernels.Benchmark
	err   error
}

// build returns s's program and benchmark. Every cell with an equal
// slot shares one build: nothing writes an object after asm sets its
// Entry, so concurrent cells read it safely.
func (r *Runner) build(s cellSlot) (*loader.Object, *kernels.Benchmark, error) {
	r.mu.Lock()
	b := r.builds[s]
	if b == nil {
		b = &builtSlot{}
		r.builds[s] = b
	}
	r.mu.Unlock()
	b.once.Do(func() { b.obj, b.bench, b.err = s.build() })
	return b.obj, b.bench, b.err
}

// nonKernelMaxCycles is the runaway guard of cells that run anything other
// than a lone paper kernel.
const nonKernelMaxCycles = 100_000_000

// build assembles the slot's program, and returns its benchmark when
// the slot is a paper kernel.
func (s *cellSlot) build() (*loader.Object, *kernels.Benchmark, error) {
	switch {
	case s.Kernel != "":
		b, err := kernels.Get(s.Kernel)
		if err != nil {
			return nil, nil, err
		}
		obj, err := b.Build(s.Params)
		return obj, b, err
	case s.MiniC != "":
		obj, err := minic.CompileToObject(s.MiniC, minic.Options{Regs: s.Regs})
		return obj, nil, err
	default:
		obj, err := asm.Assemble(progen.New(s.Seed).Source)
		return obj, nil, err
	}
}

// modelDigest is the sha256 of the Stats of every Small-sweep and
// Paper-pinned cell (TestModelDigest), so a model change that moves any
// of them renames every cell and no store serves stale ones.
//
//go:embed testdata/model.digest
var modelDigest string

// cellID names c by everything it simulates: the hex sha256 of its key
// and the model digest. The key's buffer stays on the stack.
func cellID(c cellSpec) string {
	sum := sha256.Sum256(append(appendCellKey(make([]byte, 0, 1024), c), modelDigest...))
	return hex.EncodeToString(sum[:])
}

// appendCellKey appends c's key to buf: a canonical encoding of
// everything c simulates, the complete Config and the slots. It does
// not depend on the model digest, so the digest can be keyed by it.
func appendCellKey(buf []byte, c cellSpec) []byte {
	cfg := c.cfg
	// An injector is an interface, named by its spec; a coverage set
	// only asks for recording; a mix is what the slots describe.
	inj, cov := cfg.Injector, cfg.Coverage != nil
	cfg.Injector, cfg.Coverage, cfg.Mix = nil, nil, nil
	buf = appendCanonical(buf, reflect.ValueOf(&cfg).Elem())
	buf = appendCanonical(buf, reflect.ValueOf(c.slots))
	buf = appendCanonical(buf, reflect.ValueOf(cov))
	if inj != nil {
		return appendCanonical(append(buf, 1), reflect.ValueOf(inj.String()))
	}
	return append(buf, 0)
}

// appendCanonical appends an unambiguous encoding of v, whose type is
// fixed by the caller, to buf. It panics on a kind it cannot encode, so
// a field added to Config or cellSlot is either part of every cell ID
// or fails loudly.
func appendCanonical(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(buf, v.Uint())
	case reflect.String:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Len()))
		return append(buf, v.String()...)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = appendCanonical(buf, v.Index(i))
		}
		return buf
	case reflect.Slice:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = appendCanonical(buf, v.Index(i))
		}
		return buf
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0)
		}
		return appendCanonical(append(buf, 1), v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(buf, 0)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendCanonical(buf, v.Field(i))
		}
		return buf
	}
	panic(fmt.Sprintf("experiments: a cell ID cannot encode %s (kind %s)", v.Type(), v.Kind()))
}

// simulate builds c's programs, runs them and validates the result: a
// lone paper kernel against its golden model, anything else against the
// functional reference over the full stacked memory, so a leak between
// slots fails the cell instead of skewing a table. id names the cell's
// crash bundle.
func (r *Runner) simulate(id string, c cellSpec) (*core.Stats, error) {
	start := time.Now()
	cfg := c.cfg
	if cfg.Coverage != nil {
		cfg.Coverage = cover.NewSet() // one set per run
	}
	mix := &loader.Mix{Slots: make([]loader.Slot, len(c.slots))}
	var golden *kernels.Benchmark
	for i, s := range c.slots {
		obj, b, err := r.build(s)
		if err != nil {
			return nil, fmt.Errorf("%s slot %d: %w", c.label, i, err)
		}
		mix.Slots[i] = loader.Slot{Object: obj, Threads: s.Threads, Regs: s.Regs}
		golden = b
	}
	var obj *loader.Object
	if len(mix.Slots) == 1 {
		// The homogeneous machine, which a crash bundle can replay.
		obj = mix.Slots[0].Object
		mix = loader.SoloMix(obj, cfg.Threads)
	} else {
		cfg.Mix, golden = mix, nil
	}
	m, err := core.New(obj, cfg)
	if err != nil {
		return nil, err
	}
	st, err := m.Run()
	if err != nil {
		err = fmt.Errorf("%s (threads=%d): %w", c.label, cfg.Threads, err)
		var me *core.MachineError
		if r.CrashDir == "" || obj == nil || !errors.As(err, &me) {
			return nil, err
		}
		bundle := crash.New(c.label, obj, cfg, me)
		final, replay, werr := bundle.Write(filepath.Join(r.CrashDir, bundle.DirName(id[:12])))
		if werr != nil {
			return nil, fmt.Errorf("%w\n(crash bundle not written: %v)", err, werr)
		}
		// cellError threads the bundle path to the supervisor, which
		// attaches it to the quarantine record if the failure confirms.
		return nil, &cellError{err: fmt.Errorf("%w\ncrash bundle: %s (reproduce: %s)", err, final, replay), bundle: final}
	}
	if golden != nil {
		if err := golden.Check(m.Memory(), obj, c.slots[0].Params); err != nil {
			return nil, fmt.Errorf("%s (threads=%d) failed validation: %w", c.label, cfg.Threads, err)
		}
	} else {
		ref, err := funcsim.RunMix(mix, 500_000_000)
		if err != nil {
			return nil, fmt.Errorf("%s functional reference: %w", c.label, err)
		}
		if addr, got, want, differ := m.Memory().Diff(ref.Memory()); differ {
			return nil, fmt.Errorf("%s (threads=%d) diverges from the functional reference at %#x: pipeline %#x, functional %#x",
				c.label, cfg.Threads, addr, got, want)
		}
	}
	r.progressf("%-8s threads=%d ways=%d su=%d policy=%v: %d cycles (IPC %.2f) [%v]",
		c.label, cfg.Threads, cfg.Cache.Ways, cfg.SUEntries, cfg.FetchPolicy, st.Cycles, st.IPC(),
		time.Since(start).Round(time.Millisecond))
	return st, nil
}
