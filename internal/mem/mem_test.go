package mem

import (
	"errors"
	"testing"
)

func TestLoadStore(t *testing.T) {
	m := New(64)
	m.StoreWord(0, 0xDEADBEEF)
	m.StoreWord(60, 42)
	if got := m.LoadWord(0); got != 0xDEADBEEF {
		t.Errorf("LoadWord(0) = %#x", got)
	}
	if got := m.LoadWord(60); got != 42 {
		t.Errorf("LoadWord(60) = %d", got)
	}
	if got := m.LoadWord(4); got != 0 {
		t.Errorf("uninitialized word = %d, want 0", got)
	}
}

func TestSizeRounding(t *testing.T) {
	if got := New(5).Size(); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestCheckedFaults(t *testing.T) {
	m := New(64)
	cases := []struct {
		addr      uint32
		unaligned bool
	}{{2, true}, {64, false}, {^uint32(0), true}, {1 << 30, false}}
	for _, c := range cases {
		_, err := m.Load(c.addr)
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("Load(%#x) err = %v, want *Fault", c.addr, err)
		}
		if f.Addr != c.addr || f.Write || f.Unaligned != c.unaligned {
			t.Errorf("Load(%#x) fault = %+v", c.addr, f)
		}
		err = m.Store(c.addr, 1)
		if !errors.As(err, &f) {
			t.Fatalf("Store(%#x) err = %v, want *Fault", c.addr, err)
		}
		if f.Addr != c.addr || !f.Write || f.Unaligned != c.unaligned {
			t.Errorf("Store(%#x) fault = %+v", c.addr, f)
		}
	}
	if v, err := m.Load(60); err != nil || v != 0 {
		t.Errorf("Load(60) = %d, %v", v, err)
	}
	if err := m.Store(60, 9); err != nil {
		t.Errorf("Store(60) = %v", err)
	}
	if v, _ := m.Load(60); v != 9 {
		t.Errorf("checked store not visible: %d", v)
	}
}

// The unchecked accessors remain for validated hot paths; misuse traps
// with the typed *Fault, never a bare string.
func TestUncheckedPanicsWithTypedFault(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unaligned access did not panic")
		}
		if _, ok := r.(*Fault); !ok {
			t.Fatalf("panic value %T, want *Fault", r)
		}
	}()
	New(64).LoadWord(2)
}

func TestInRange(t *testing.T) {
	m := New(64)
	cases := []struct {
		addr uint32
		want bool
	}{{0, true}, {60, true}, {64, false}, {2, false}, {^uint32(0), false}}
	for _, c := range cases {
		if got := m.InRange(c.addr); got != c.want {
			t.Errorf("InRange(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := New(16)
	m.StoreWord(0, 7)
	snap := m.Snapshot()
	m.StoreWord(0, 8)
	if snap[0] != 7 {
		t.Error("snapshot mutated by later store")
	}
}

const pageBytes = pageWords * 4

// An absent page reads as zeros without allocating; the first store
// into it allocates the page once, and later stores reuse it.
func TestAbsentPageAllocation(t *testing.T) {
	m := New(4 * pageBytes)
	if n := testing.AllocsPerRun(10, func() {
		if m.LoadWord(pageBytes+8) != 0 {
			t.Fatal("absent page reads nonzero")
		}
	}); n != 0 {
		t.Errorf("load from an absent page allocates %.2f objects, want 0", n)
	}
	const runs = 5
	fresh := make([]*Memory, runs+1)
	for i := range fresh {
		fresh[i] = New(4 * pageBytes)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		fresh[next].StoreWord(2*pageBytes+4, 1)
		next++
	}); n != 1 {
		t.Errorf("first store into an absent page allocates %.2f objects, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { fresh[0].StoreWord(2*pageBytes+8, 2) }); n != 0 {
		t.Errorf("store into a present page allocates %.2f objects, want 0", n)
	}
	if got := fresh[0].LoadWord(2*pageBytes + 4); got != 1 {
		t.Errorf("stored word reads %d, want 1", got)
	}
}

// Snapshot flattens the page table: absent pages become zeros, and a
// partial last page is cut at the memory size.
func TestSnapshotFlattensPages(t *testing.T) {
	m := New(2*pageBytes + 8)
	m.StoreWord(4, 1)
	m.StoreWord(2*pageBytes+4, 3)
	want := make([]uint32, (2*pageBytes+8)/4)
	want[1] = 1
	want[len(want)-1] = 3
	got := m.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot has %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDiff(t *testing.T) {
	const size = 3 * pageBytes
	a, b := New(size), New(size)
	if _, _, _, differ := a.Diff(b); differ {
		t.Error("two empty memories differ")
	}
	// A page written with zeros equals an absent page.
	a.StoreWord(pageBytes+12, 0)
	if _, _, _, differ := a.Diff(b); differ {
		t.Error("zeroed page differs from an absent page")
	}
	b.StoreWord(2*pageBytes+8, 5)
	if addr, x, y, differ := a.Diff(b); !differ || addr != 2*pageBytes+8 || x != 0 || y != 5 {
		t.Errorf("Diff = %#x, %d, %d, %v; want %#x, 0, 5, true", addr, x, y, differ, 2*pageBytes+8)
	}
	// The first difference wins, across a zeroed and a written page.
	a.StoreWord(pageBytes+16, 7)
	if addr, x, y, differ := a.Diff(b); !differ || addr != pageBytes+16 || x != 7 || y != 0 {
		t.Errorf("Diff = %#x, %d, %d, %v; want %#x, 7, 0, true", addr, x, y, differ, pageBytes+16)
	}
	if addr, x, y, _ := b.Diff(a); addr != pageBytes+16 || x != 0 || y != 7 {
		t.Errorf("reversed Diff = %#x, %d, %d; want %#x, 0, 7", addr, x, y, pageBytes+16)
	}
	b.StoreWord(pageBytes+16, 7)
	a.StoreWord(2*pageBytes+8, 5)
	if _, _, _, differ := a.Diff(b); differ {
		t.Error("equal written pages differ")
	}
}

// A size mismatch differs at the first word past the shorter memory,
// unless an earlier word already differs.
func TestDiffSizeMismatch(t *testing.T) {
	short, long := New(16), New(pageBytes+16)
	long.StoreWord(pageBytes, 9)
	if addr, x, y, differ := short.Diff(long); !differ || addr != 16 || x != 0 || y != 0 {
		t.Errorf("Diff = %#x, %d, %d, %v; want 0x10, 0, 0, true", addr, x, y, differ)
	}
	long.StoreWord(16, 4)
	if addr, x, y, differ := long.Diff(short); !differ || addr != 16 || x != 4 || y != 0 {
		t.Errorf("Diff = %#x, %d, %d, %v; want 0x10, 4, 0, true", addr, x, y, differ)
	}
	long.StoreWord(8, 3)
	if addr, x, y, differ := short.Diff(long); !differ || addr != 8 || x != 0 || y != 3 {
		t.Errorf("Diff = %#x, %d, %d, %v; want 0x8, 0, 3, true", addr, x, y, differ)
	}
}
