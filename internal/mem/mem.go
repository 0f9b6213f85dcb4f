// Package mem provides the paged word-addressed main memory that backs
// the instruction fetch path, the data cache, and the synchronization
// controller.
package mem

import "fmt"

// Fault is a typed memory trap: an unaligned or out-of-range word
// access. Untrusted address paths (the functional simulator, the
// synchronization controller) use the checked Load/Store accessors and
// propagate the fault as an error; the simulators attach cycle, thread,
// and PC context before surfacing it.
type Fault struct {
	Addr      uint32
	Write     bool
	Unaligned bool   // false: out of range
	Size      uint32 // memory size, for out-of-range faults
}

func (f *Fault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	if f.Unaligned {
		return fmt.Sprintf("mem: unaligned %s at %#08x", op, f.Addr)
	}
	return fmt.Sprintf("mem: %s at %#08x beyond memory size %#x", op, f.Addr, f.Size)
}

// A page is the allocation granule of a Memory: 4 KiB.
const pageWords = 1024

type page [pageWords]uint32

// zeroPage stands in for an absent page when comparing; nothing writes
// it, so memories on different goroutines may share it.
var zeroPage page

// Memory is a byte-addressed store of 32-bit words. All accesses must be
// word-aligned; SDSP-32 has no sub-word memory operations.
//
// The image is a table of 4 KiB pages. An absent page reads as zeros;
// the first store into it allocates it. A program's image touches a few
// pages of its address space, so a machine pays for what it uses rather
// than for the whole address map.
type Memory struct {
	pages []*page
	words uint32 // size in words
}

// New returns a zeroed memory of the given size in bytes (rounded up to
// a whole word).
func New(sizeBytes uint32) *Memory {
	n := (sizeBytes + 3) / 4
	return &Memory{pages: make([]*page, (n+pageWords-1)/pageWords), words: n}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.words * 4 }

func (m *Memory) index(addr uint32, write bool) (uint32, *Fault) {
	if (addr & 3) != 0 {
		return 0, &Fault{Addr: addr, Write: write, Unaligned: true}
	}
	i := addr / 4
	if i >= m.words {
		return 0, &Fault{Addr: addr, Write: write, Size: m.Size()}
	}
	return i, nil
}

// word reads word index i, which must be in range.
func (m *Memory) word(i uint32) uint32 {
	if p := m.pages[i/pageWords]; p != nil {
		return p[i%pageWords]
	}
	return 0
}

// setWord writes word index i, which must be in range, allocating its
// page on first store.
func (m *Memory) setWord(i, v uint32) {
	p := m.pages[i/pageWords]
	if p == nil {
		p = new(page)
		m.pages[i/pageWords] = p
	}
	p[i%pageWords] = v
}

// Load reads the word at addr, returning a *Fault for an unaligned or
// out-of-range access.
func (m *Memory) Load(addr uint32) (uint32, error) {
	i, f := m.index(addr, false)
	if f != nil {
		return 0, f
	}
	return m.word(i), nil
}

// Store writes v to the word at addr, returning a *Fault for an
// unaligned or out-of-range access.
func (m *Memory) Store(addr, v uint32) error {
	i, f := m.index(addr, true)
	if f != nil {
		return f
	}
	m.setWord(i, v)
	return nil
}

// LoadWord reads the word at addr. The caller must have validated the
// address (InRange); an illegal access panics with a *Fault. Untrusted
// paths use Load instead.
func (m *Memory) LoadWord(addr uint32) uint32 {
	i, f := m.index(addr, false)
	if f != nil {
		panic(f)
	}
	return m.word(i)
}

// StoreWord writes v to the word at addr. The caller must have validated
// the address (InRange); an illegal access panics with a *Fault.
// Untrusted paths use Store instead.
func (m *Memory) StoreWord(addr, v uint32) {
	i, f := m.index(addr, true)
	if f != nil {
		panic(f)
	}
	m.setWord(i, v)
}

// InRange reports whether a word access at addr would be legal.
func (m *Memory) InRange(addr uint32) bool {
	return (addr&3) == 0 && addr/4 < m.words
}

// Snapshot returns a copy of the memory contents as words.
func (m *Memory) Snapshot() []uint32 {
	out := make([]uint32, m.words)
	for pi, p := range m.pages {
		if p != nil {
			copy(out[pi*pageWords:], p[:])
		}
	}
	return out
}

// Diff returns the first word at which m and o differ: its byte address
// and the word in each memory. An absent page equals a page of zeros.
// When the sizes differ, the first word past the shorter memory differs
// unless an earlier word does; a word past a memory's end reads as 0.
// differ is false when the memories hold the same words.
func (m *Memory) Diff(o *Memory) (addr, a, b uint32, differ bool) {
	n := min(m.words, o.words)
	for pi := uint32(0); pi*pageWords < n; pi++ {
		pa, pb := m.pages[pi], o.pages[pi]
		if pa == nil {
			pa = &zeroPage
		}
		if pb == nil {
			pb = &zeroPage
		}
		if *pa == *pb {
			continue
		}
		for w := uint32(0); w < pageWords && pi*pageWords+w < n; w++ {
			if pa[w] != pb[w] {
				return (pi*pageWords + w) * 4, pa[w], pb[w], true
			}
		}
	}
	if m.words == o.words {
		return 0, 0, 0, false
	}
	if m.words > n {
		a = m.word(n)
	} else {
		b = o.word(n)
	}
	return n * 4, a, b, true
}
