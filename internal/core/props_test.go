package core

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cover"
	"repro/internal/kernels"
	"repro/internal/loader"
	"repro/internal/minic"
	"repro/internal/progen"
)

// Timing properties. The goldens freeze whatever timing the model
// produces, so a change that moves cycles but keeps results correct
// passes them. These checks hold for any correct timing model. They run
// over the paper kernels, a MiniC program and a slice of progen
// programs at Small scale,
// on 1 and 4 threads, under the paper's three fetch policies, with the
// paper's default and "++" FU configurations (Figs 11–12):
//
//   - identities: per-thread commits sum to Committed, and at most one
//     block commits per cycle;
//   - arena position: where a block lands in the fixed arena is not
//     observable, so shuffling the block free list changes no Stats;
//   - slack invariance: enlarging a resource the run never ran short of
//     changes no Stats, apart from the resource's own shape;
//   - the event stream: one dispatch record per committed or squashed
//     instruction; per tag, dispatch, issue and writeback records arrive
//     at most once each and in strictly increasing cycles; one commit
//     record per CommitsPerWin count, in its window slot, and at most
//     one per cycle;
//   - observation: no observer, coverage, the trace, and both give
//     identical Stats, and the two coverage runs identical counts.
//
// Out-of-order machines show timing anomalies, so "more resources are
// never slower" is not asserted.

// propSeeds is the fixed slice of progen programs the properties run.
var propSeeds = []int64{1, 2, 3, 5, 8, 13}

// propDotC is an inner product in MiniC. Its locals live in stack
// slots, so its loads alias older in-flight stores to the same slot,
// which the hand-written kernels and progen programs rarely do: without
// it, no case notices store forwarding that scans candidates in arena
// order instead of age order.
const propDotC = `
int n = 96;
float xs[96];
float zs[96];
float partial[6];

void main() {
	int i; int lo; int hi; float acc;
	lo = tid() * n / nth();
	hi = (tid() + 1) * n / nth();
	for (i = lo; i < hi; i = i + 1) {
		xs[i] = itof(i % 23) * 0.125;
		zs[i] = itof(i % 19) * 0.25;
	}
	acc = 0.0;
	for (i = lo; i < hi; i = i + 1) {
		acc = acc + xs[i] * zs[i];
	}
	partial[tid()] = acc;
}
`

var propMachines = []struct {
	name string
	set  func(*Config)
}{
	{"paper", func(*Config) {}},
	{"fu++", func(c *Config) { c.FUs = EnhancedFUs() }},
}

type propCase struct {
	name string
	obj  *loader.Object
	cfg  Config
}

func propCases(t *testing.T) []propCase {
	t.Helper()
	type prog struct {
		name string
		obj  func(threads int) (*loader.Object, error)
	}
	var progs []prog
	for _, b := range kernels.All() {
		b := b
		progs = append(progs, prog{b.Name, func(n int) (*loader.Object, error) {
			return b.Build(kernels.Params{Threads: n, Scale: kernels.Small})
		}})
	}
	progs = append(progs, prog{"minic-dot", func(int) (*loader.Object, error) {
		return minic.CompileToObject(propDotC, minic.Options{})
	}})
	for _, seed := range propSeeds {
		src := progen.New(seed).Source
		progs = append(progs, prog{fmt.Sprintf("progen%d", seed), func(int) (*loader.Object, error) {
			return asm.Assemble(src)
		}})
	}
	var cs []propCase
	for _, p := range progs {
		for _, n := range []int{1, 4} {
			obj, err := p.obj(n)
			if err != nil {
				t.Fatalf("%s/t%d: %v", p.name, n, err)
			}
			for _, fp := range []FetchPolicy{TrueRR, MaskedRR, CondSwitch} {
				for _, mc := range propMachines {
					cfg := DefaultConfig()
					cfg.Threads = n
					cfg.FetchPolicy = fp
					mc.set(&cfg)
					cs = append(cs, propCase{fmt.Sprintf("%s/t%d/%v/%s", p.name, n, fp, mc.name), obj, cfg})
				}
			}
		}
	}
	return cs
}

// propRun builds c's machine with coverage on, lets prep adjust it
// after New, and runs it to completion one Cycle at a time, checking
// the per-cycle identity: at most one block commits per cycle.
func propRun(t *testing.T, c propCase, cfg Config, prep func(*Machine)) *Stats {
	t.Helper()
	cfg.Coverage = cover.NewSet()
	m, err := New(c.obj, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if prep != nil {
		prep(m)
	}
	commits := func() (n uint64) {
		for _, k := range m.stats.CommitsPerWin {
			n += k
		}
		return n
	}
	limit := cfg.maxCycles()
	for !m.Done() && m.Err() == nil && m.Now() < limit {
		before := commits()
		m.Cycle()
		if d := commits() - before; d > 1 {
			t.Fatalf("%s: %d blocks committed in cycle %d", c.name, d, m.Now())
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return st
}

// statsDiff describes how b differs from a, or returns "". Coverage is
// compared event by event, leaving out the skipped events.
func statsDiff(a, b *Stats, skip ...cover.Event) string {
	ac, bc := *a, *b
	ac.Coverage, bc.Coverage = nil, nil
	if !reflect.DeepEqual(ac, bc) {
		return fmt.Sprintf("stats differ:\n%+v\n%+v", ac, bc)
	}
	for _, ev := range cover.Events() {
		skipped := false
		for _, s := range skip {
			skipped = skipped || s == ev
		}
		if !skipped && a.Coverage.Count(ev) != b.Coverage.Count(ev) {
			return fmt.Sprintf("coverage event %v: %d vs %d", ev, a.Coverage.Count(ev), b.Coverage.Count(ev))
		}
	}
	return ""
}

// observedRun runs c to completion with coverage on when cov is set and
// sink, when non-nil, attached.
func observedRun(t *testing.T, c propCase, cov bool, sink cover.Sink) *Stats {
	t.Helper()
	cfg := c.cfg
	if cov {
		cfg.Coverage = cover.NewSet()
	}
	m, err := New(c.obj, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if sink != nil {
		m.Observe(sink)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return st
}

// streamSink checks the stage records of one run as they arrive and
// tallies what check compares with the run's Stats.
type streamSink struct {
	stages     map[uint64][3]uint64 // per tag: dispatch, issue, writeback cycle
	dispatched uint64
	commits    [BlockSize]uint64 // commit records per window slot
	lastCommit uint64            // cycle of the last commit record
	err        error
}

func (s *streamSink) Observe(r cover.Record) {
	if s.err != nil {
		return
	}
	stage := 0
	switch r.Kind {
	case cover.KindDispatch:
		s.dispatched++
	case cover.KindIssue:
		stage = 1
	case cover.KindWriteback:
		stage = 2
	case cover.KindCommit:
		if r.Cycle == s.lastCommit {
			s.err = fmt.Errorf("two commit records in cycle %d", r.Cycle)
		}
		s.commits[r.A]++
		s.lastCommit = r.Cycle
		return
	default:
		return
	}
	at := s.stages[r.Tag]
	switch {
	case at[stage] != 0:
		s.err = fmt.Errorf("tag %d: a second record of stage %d in cycle %d", r.Tag, stage, r.Cycle)
	case stage > 0 && (at[stage-1] == 0 || at[stage-1] >= r.Cycle):
		s.err = fmt.Errorf("tag %d: stage %d in cycle %d, stage %d in cycle %d", r.Tag, stage, r.Cycle, stage-1, at[stage-1])
	}
	at[stage] = r.Cycle
	s.stages[r.Tag] = at
}

// check compares the tallies with the run's Stats.
func (s *streamSink) check(st *Stats) error {
	if s.err != nil {
		return s.err
	}
	if s.dispatched != st.Committed+st.Squashed {
		return fmt.Errorf("%d dispatch records, %d committed + %d squashed", s.dispatched, st.Committed, st.Squashed)
	}
	if s.commits != st.CommitsPerWin {
		return fmt.Errorf("commit records per window slot %v, CommitsPerWin %v", s.commits, st.CommitsPerWin)
	}
	return nil
}

// slackResource is one resource whose enlargement must not change a
// run that never ran short of it. grow enlarges cfg's resource and
// reports true when the run st left it slack.
type slackResource struct {
	name string
	grow func(cfg *Config, st *Stats) bool
	// shape lists the coverage events that describe the resource's size
	// rather than the run.
	shape []cover.Event
}

var slackResources = []slackResource{
	{
		name: "SU",
		// ICountFeedback reads SUEntries, so its SU always counts as used.
		grow: func(cfg *Config, st *Stats) bool {
			cfg.SUEntries *= 2
			return st.SUFullCycles == 0 && cfg.FetchPolicy != ICountFeedback
		},
	},
	{
		name: "store buffer",
		grow: func(cfg *Config, st *Stats) bool {
			cfg.StoreBuffer *= 2
			return st.StoreBufferFull == 0
		},
		shape: []cover.Event{cover.EvStoreBufferSaturated},
	},
	{
		name: "FUs",
		grow: growIdleFUs,
	},
}

// growIdleFUs adds a unit to every FU class the run st never exhausted,
// and reports whether there was one. No class was exhausted when no
// ready instruction ever found every unit of its class busy. A class
// was not exhausted either when its last unit never worked: issue takes
// the lowest free unit, so that unit was free at every request.
func growIdleFUs(cfg *Config, st *Stats) bool {
	none := st.Coverage.Count(cover.EvIssueFUExhausted) == 0
	grew := false
	for cl, row := range st.FUUsage {
		if none || row[len(row)-1] == 0 {
			cfg.FUs.Count[cl]++
			grew = true
		}
	}
	return grew
}

// dropAddedUnits trims big's FU usage rows to base's shape, or reports
// an added unit that worked.
func dropAddedUnits(base, big *Stats) error {
	for cl, row := range big.FUUsage {
		if n := len(base.FUUsage[cl]); len(row) > n {
			if row[n] != 0 {
				return fmt.Errorf("added unit of class %d was used for %d cycles", cl, row[n])
			}
			big.FUUsage[cl] = row[:n]
		}
	}
	return nil
}

func TestTimingProperties(t *testing.T) {
	checked := map[string]int{}
	for i, c := range propCases(t) {
		base := propRun(t, c, c.cfg, nil)

		// Identity: per-thread commits sum to the total.
		sum := uint64(0)
		for _, n := range base.CommittedByThread {
			sum += n
		}
		if sum != base.Committed {
			t.Errorf("%s: per-thread commits sum to %d, Committed is %d", c.name, sum, base.Committed)
		}
		checked["identities"]++

		// Arena position: a free list shuffled with the case's fixed seed
		// places blocks elsewhere.
		shuffled := propRun(t, c, c.cfg, func(m *Machine) {
			r := rand.New(rand.NewSource(int64(i)))
			r.Shuffle(len(m.blockFree), func(i, j int) {
				m.blockFree[i], m.blockFree[j] = m.blockFree[j], m.blockFree[i]
			})
		})
		if d := statsDiff(base, shuffled); d != "" {
			t.Errorf("%s: shuffled block arena: %s", c.name, d)
		}
		checked["arena position"]++

		// The event stream, and observation changes nothing: the run
		// with coverage only (base) against no observer, the trace only
		// (with the stream checks riding on it) and both.
		// The trace renders its first 100 cycles: a record reaches the
		// renderer as a copy, so later cycles' text could change nothing.
		streams := &streamSink{stages: map[uint64][3]uint64{}}
		trace := func() cover.Sink { return cover.NewTrace(io.Discard, 100) }
		plain := observedRun(t, c, false, nil)
		traced := observedRun(t, c, false, cover.Chain(trace(), streams))
		both := observedRun(t, c, true, trace())
		if err := streams.check(traced); err != nil {
			t.Errorf("%s: event stream: %v", c.name, err)
		}
		checked["event stream"]++
		for _, o := range []struct {
			name string
			st   *Stats
		}{{"no observer", plain}, {"the trace", traced}, {"coverage and the trace", both}} {
			bc, oc := *base, *o.st
			bc.Coverage, oc.Coverage = nil, nil
			if !reflect.DeepEqual(bc, oc) {
				t.Errorf("%s: coverage only vs %s: stats differ:\n%+v\n%+v", c.name, o.name, bc, oc)
			}
		}
		if d := statsDiff(base, both); d != "" {
			t.Errorf("%s: coverage only vs coverage and the trace: %s", c.name, d)
		}
		checked["observation"]++

		for _, res := range slackResources {
			cfg := c.cfg
			if !res.grow(&cfg, base) {
				continue
			}
			big := propRun(t, c, cfg, nil)
			if err := dropAddedUnits(base, big); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			if d := statsDiff(base, big, res.shape...); d != "" {
				t.Errorf("%s: enlarged %s never ran short of: %s", c.name, res.name, d)
			}
			checked["slack "+res.name]++
			if res.name == "FUs" && base.Coverage.Count(cover.EvIssueFUExhausted) == 0 {
				checked["slack FUs, no class exhausted"]++
			}
		}
	}
	for _, p := range []string{"identities", "arena position", "event stream", "observation", "slack SU", "slack store buffer", "slack FUs", "slack FUs, no class exhausted"} {
		t.Logf("%s: %d cases", p, checked[p])
		if checked[p] == 0 {
			t.Errorf("property %q checked no case", p)
		}
	}
}
