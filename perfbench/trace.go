package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the simulator. Spans of one cell share Cell.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Cell   int    `json:"cell"`   // -1 when the span belongs to no cell
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, so untraced runs share the traced code path.
// Safe for concurrent use.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]uint64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), counts: map[string]uint64{}}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, cell int) int {
	if r == nil {
		return -1
	}
	t := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: t, End: t, Parent: parent, Cell: cell})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	t := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// count adds n to the named counter.
func (r *recorder) count(name string, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// dur returns span id's duration.
func (r *recorder) dur(id int) time.Duration {
	s := r.spans[id]
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap (a worker pool's cells), so the
// covered part is the union of their intervals.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, reach), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layer aggregates the spans of one name.
type layer struct {
	n     int
	total time.Duration
	self  time.Duration
}

// mean returns the mean span duration.
func (l layer) mean() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.total / time.Duration(l.n)
}

// layers aggregates, by name, the spans descending from root (root
// included).
func (r *recorder) layers(root int) map[string]layer {
	self := r.selfTimes()
	out := map[string]layer{}
	for i, s := range r.spans {
		if r.rootOf(i) != root {
			continue
		}
		l := out[s.Name]
		l.n++
		l.total += time.Duration(s.End - s.Start)
		l.self += self[i]
		out[s.Name] = l
	}
	return out
}

// rootOf returns the outermost ancestor of span i.
func (r *recorder) rootOf(i int) int {
	for r.spans[i].Parent >= 0 {
		i = r.spans[i].Parent
	}
	return i
}

// write saves the spans, their self times and the counts as JSON.
func (r *recorder) write(path string) error {
	self := r.selfTimes()
	selfNS := make([]int64, len(self))
	for i, d := range self {
		selfNS[i] = int64(d)
	}
	data, err := json.Marshal(struct {
		Spans  []span            `json:"spans"`
		SelfNS []int64           `json:"self_ns"`
		Counts map[string]uint64 `json:"counts"`
	}{r.spans, selfNS, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
