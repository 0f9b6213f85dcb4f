package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// testMem builds a memory where word at addr holds addr (for easy checks).
func testMem(words uint32) *mem.Memory {
	m := mem.New(words * 4)
	for a := uint32(0); a < words*4; a += 4 {
		m.StoreWord(a, a)
	}
	return m
}

func smallConfig(ways int) Config {
	return Config{SizeBytes: 256, LineBytes: 16, Ways: ways, MissPenalty: 10}
}

// readThrough drives a read to completion, returning the value and the
// number of cycles spent.
func readThrough(t *testing.T, c *Cache, addr uint32, start uint64) (uint32, uint64) {
	t.Helper()
	now := start
	count := true
	for {
		c.Tick(now)
		v, res := c.Read(addr, now, count)
		if res == Hit {
			return v, now - start
		}
		count = false
		now++
		if now > start+1000 {
			t.Fatalf("read at %#x never completed", addr)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	m := testMem(1024)
	c := New(smallConfig(2), m)
	v, cycles := readThrough(t, c, 0x40, 0)
	if v != 0x40 {
		t.Errorf("read value %#x, want %#x", v, 0x40)
	}
	if cycles != 10 {
		t.Errorf("miss took %d cycles, want 10", cycles)
	}
	// Same line: immediate hit.
	c.Tick(100)
	if _, res := c.Read(0x44, 100, true); res != Hit {
		t.Errorf("same-line read = %v, want hit", res)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHitUnderMiss(t *testing.T) {
	m := testMem(1024)
	c := New(smallConfig(2), m)
	readThrough(t, c, 0x40, 0) // line 0x40 now resident
	now := uint64(50)
	c.Tick(now)
	if _, res := c.Read(0x200, now, true); res != Miss {
		t.Fatal("expected miss to start refill")
	}
	// While the refill is outstanding, a hit to a resident line is served.
	now++
	c.Tick(now)
	if _, res := c.Read(0x48, now, true); res != Hit {
		t.Error("hit under miss not serviced")
	}
}

func TestSecondMissBlocksCache(t *testing.T) {
	m := testMem(4096)
	c := New(smallConfig(2), m)
	readThrough(t, c, 0x40, 0)
	now := uint64(50)
	c.Tick(now)
	if _, res := c.Read(0x200, now, true); res != Miss {
		t.Fatal("first miss did not start")
	}
	now++
	c.Tick(now)
	if _, res := c.Read(0x600, now, true); res != Miss {
		t.Fatal("second miss not registered")
	}
	// Cache is now blocked: even hits are refused.
	now++
	c.Tick(now)
	if _, res := c.Read(0x44, now, false); res != Busy {
		t.Error("blocked cache serviced a hit")
	}
	if c.Stats().BlockedRejects == 0 {
		t.Error("blocked rejects not counted")
	}
	// After both refills complete, everything is serviceable again.
	now = 50 + 10 + 10 + 2
	c.Tick(now)
	if _, res := c.Read(0x200, now, false); res != Hit {
		t.Error("first missed line not resident after refills")
	}
	if _, res := c.Read(0x600, now, false); res != Hit {
		t.Error("second missed line not resident after refills")
	}
}

func TestSecondMissSerializedTiming(t *testing.T) {
	m := testMem(4096)
	c := New(smallConfig(2), m)
	now := uint64(0)
	c.Tick(now)
	c.Read(0x200, now, true) // refill ready at 10
	c.Tick(now + 1)
	c.Read(0x600, now+1, true) // queued; starts at 10, ready at 20
	// At cycle 15 the second line must not yet be resident.
	c.Tick(15)
	if _, res := c.Read(0x600, 15, false); res == Hit {
		t.Error("second refill completed too early")
	}
	c.Tick(21)
	if _, res := c.Read(0x600, 21, false); res != Hit {
		t.Error("second refill not complete after serialized penalty")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	m := testMem(4096)
	c := New(smallConfig(1), m)
	now := uint64(0)
	count := true
	for {
		c.Tick(now)
		if res := c.Write(0x100, 777, now, count); res == Hit {
			break
		}
		count = false
		now++
	}
	if m.LoadWord(0x100) == 777 {
		t.Error("write-back cache wrote through to memory")
	}
	// Evict by touching the conflicting line (direct-mapped, 256B cache).
	readThrough(t, c, 0x100+256, now+1)
	if m.LoadWord(0x100) != 777 {
		t.Error("dirty line not written back on eviction")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestFlushAll(t *testing.T) {
	m := testMem(4096)
	c := New(smallConfig(2), m)
	now := uint64(0)
	for {
		c.Tick(now)
		if res := c.Write(0x80, 123, now, false); res == Hit {
			break
		}
		now++
	}
	c.FlushAll()
	if m.LoadWord(0x80) != 123 {
		t.Error("FlushAll did not write back dirty data")
	}
}

func TestDirectMappedConflictsVsAssociative(t *testing.T) {
	// Two addresses that map to the same set ping-pong in a direct-mapped
	// cache but coexist in a 2-way cache.
	run := func(ways int) uint64 {
		m := testMem(4096)
		c := New(smallConfig(ways), m)
		// 256-byte cache: with 16B lines, direct has 16 sets, 2-way has 8.
		// Use stride = cache size so both configs alias.
		a, b := uint32(0x100), uint32(0x100+256)
		now := uint64(0)
		for i := 0; i < 10; i++ {
			_, cyc := readThrough(t, c, a, now)
			now += cyc + 1
			_, cyc = readThrough(t, c, b, now)
			now += cyc + 1
		}
		return c.Stats().Misses
	}
	direct, assoc := run(1), run(2)
	if direct <= assoc {
		t.Errorf("direct misses (%d) should exceed associative (%d) on conflict pattern", direct, assoc)
	}
	if assoc != 2 {
		t.Errorf("2-way should miss exactly twice, got %d", assoc)
	}
}

func TestLRUReplacement(t *testing.T) {
	m := testMem(1 << 16)
	c := New(smallConfig(2), m)
	// 2-way, 8 sets, 16B lines: addresses with stride 128 share a set.
	a, b, d := uint32(0x0), uint32(0x80), uint32(0x100)
	now := uint64(0)
	_, cyc := readThrough(t, c, a, now)
	now += cyc + 1
	_, cyc = readThrough(t, c, b, now)
	now += cyc + 1
	// Touch a so b is LRU; then load d, which must evict b.
	c.Tick(now)
	if _, res := c.Read(a, now, false); res != Hit {
		t.Fatal("a not resident")
	}
	now++
	_, cyc = readThrough(t, c, d, now)
	now += cyc + 1
	c.Tick(now)
	if _, res := c.Read(a, now, false); res != Hit {
		t.Error("LRU evicted the recently used line")
	}
	now++
	c.Tick(now)
	if _, res := c.Read(b, now, false); res == Hit {
		t.Error("LRU kept the least recently used line")
	}
}

// Property: after any access sequence plus FlushAll, memory matches a
// flat reference model.
func TestCoherenceWithReferenceModel(t *testing.T) {
	for _, ways := range []int{1, 2} {
		m := testMem(4096)
		ref := m.Snapshot()
		c := New(smallConfig(ways), m)
		r := rand.New(rand.NewSource(42))
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(1024)) * 4
			write := r.Intn(2) == 0
			val := uint32(r.Int63())
			for {
				c.Tick(now)
				var res Result
				if write {
					res = c.Write(addr, val, now, false)
				} else {
					var got uint32
					got, res = c.Read(addr, now, false)
					if res == Hit && got != ref[addr/4] {
						t.Fatalf("ways=%d read %#x = %#x, ref %#x", ways, addr, got, ref[addr/4])
					}
				}
				now++
				if res == Hit {
					break
				}
			}
			if write {
				ref[addr/4] = val
			}
		}
		c.FlushAll()
		for i, w := range m.Snapshot() {
			if w != ref[i] {
				t.Fatalf("ways=%d memory[%#x] = %#x, ref %#x", ways, i*4, w, ref[i])
			}
		}
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 1 {
		t.Error("empty hit rate should be 1")
	}
}

func TestConfigValidation(t *testing.T) {
	m := mem.New(64)
	bad := []Config{
		{},
		{SizeBytes: 100, LineBytes: 16, Ways: 2, MissPenalty: 1},
		{SizeBytes: 256, LineBytes: 12, Ways: 1, MissPenalty: 1},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, m)
		}()
	}
}

func TestDefaultConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.SizeBytes != 8*1024 || d.Ways != 2 || d.LineBytes != 32 {
		t.Errorf("DefaultConfig = %+v", d)
	}
	if DirectMapped().Ways != 1 {
		t.Error("DirectMapped should have 1 way")
	}
}

func TestPortsPerCycle(t *testing.T) {
	m := testMem(1024)
	cfg := smallConfig(2)
	cfg.Ports = 1
	c := New(cfg, m)
	readThrough(t, c, 0x40, 0) // line resident
	now := uint64(100)
	c.Tick(now)
	if _, res := c.Read(0x40, now, false); res != Hit {
		t.Fatal("first access of the cycle should hit")
	}
	if _, res := c.Read(0x44, now, false); res != Busy {
		t.Error("second access of the cycle should be port-rejected")
	}
	if c.Stats().PortRejects != 1 {
		t.Errorf("port rejects = %d, want 1", c.Stats().PortRejects)
	}
	// Next cycle the port is free again.
	now++
	c.Tick(now)
	if _, res := c.Read(0x44, now, false); res != Hit {
		t.Error("port not released on the next cycle")
	}
}

func TestUnlimitedPortsByDefault(t *testing.T) {
	m := testMem(1024)
	c := New(smallConfig(2), m)
	readThrough(t, c, 0x40, 0)
	now := uint64(100)
	c.Tick(now)
	for i := 0; i < 8; i++ {
		if _, res := c.Read(0x40, now, false); res != Hit {
			t.Fatalf("access %d rejected with unlimited ports", i)
		}
	}
}
