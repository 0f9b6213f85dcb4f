package loader

import (
	"testing"

	"repro/internal/mem"
)

func TestLoadPlacesSegments(t *testing.T) {
	obj := &Object{
		Text:    []uint32{1, 2, 3},
		Data:    []uint32{7, 8},
		FlagLen: 8,
		Entry:   4,
		Symbols: map[string]uint32{"a": DataBase},
	}
	m, err := SoloMix(obj, 1).Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.LoadWord(TextBase+8) != 3 {
		t.Error("text not loaded at TextBase")
	}
	if m.LoadWord(DataBase+4) != 8 {
		t.Error("data not loaded at DataBase")
	}
	if m.LoadWord(FlagBase) != 0 {
		t.Error("flag segment not zeroed")
	}
}

// TestLoadMaterializesFlagExtent: the flag segment's pages exist from
// the start, so a sync primitive's first store into them does not
// allocate in the middle of a run. Each measured store goes to a fresh
// image (AllocsPerRun makes runs+1 calls: one warm-up, then the
// measured runs).
func TestLoadMaterializesFlagExtent(t *testing.T) {
	obj := &Object{Text: []uint32{1}, FlagLen: 8}
	const runs = 5
	images := make([]*mem.Memory, runs+1)
	for i := range images {
		m, err := SoloMix(obj, 1).Load()
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		images[i] = m
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		images[next].StoreWord(FlagBase+4, 1)
		next++
	})
	if n != 0 {
		t.Errorf("first StoreWord into the flag extent allocates %.2f objects, want 0", n)
	}
}

func TestValidateRejectsBadEntry(t *testing.T) {
	obj := &Object{Text: []uint32{1}, Entry: 4}
	if err := obj.Validate(); err == nil {
		t.Error("entry beyond text accepted")
	}
	obj = &Object{Text: []uint32{1, 2}, Entry: 2}
	if err := obj.Validate(); err == nil {
		t.Error("unaligned entry accepted")
	}
}

func TestValidateRejectsOversizedFlagSegment(t *testing.T) {
	obj := &Object{Text: []uint32{1}, FlagLen: FlagSize + 4}
	if err := obj.Validate(); err == nil {
		t.Error("oversized flag segment accepted")
	}
}

func TestSymbolLookup(t *testing.T) {
	obj := &Object{Symbols: map[string]uint32{"x": 42}}
	if addr, err := obj.Symbol("x"); err != nil || addr != 42 {
		t.Errorf("Symbol(x) = %d, %v", addr, err)
	}
	if _, err := obj.Symbol("y"); err == nil {
		t.Error("unknown symbol did not error")
	}
}

func TestAddressClassifiers(t *testing.T) {
	if !IsFlagAddr(FlagBase) || IsFlagAddr(FlagBase-4) || IsFlagAddr(FlagBase+FlagSize) {
		t.Error("IsFlagAddr boundaries wrong")
	}
	if !IsDataAddr(DataBase) || IsDataAddr(DataBase-4) || IsDataAddr(FlagBase) {
		t.Error("IsDataAddr boundaries wrong")
	}
}
