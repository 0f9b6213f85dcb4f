// Package cache models the SDSP data cache: 8 KB with 32-byte lines,
// either direct-mapped or 2-way set associative with perfect LRU,
// write-back and write-allocate.
//
// Timing follows the paper's description: the cache can service one line
// refill while simultaneously providing data for hits, but a second miss
// renders it incapable of servicing any requests until the outstanding
// refills complete. The cache is uniform — shared by all threads without
// partitioning.
//
// Beyond the paper's L1, the model can grow an optional hierarchy — an
// L2 behind the L1, a small victim buffer, and a stride prefetcher —
// all off by default. The hierarchy is tag-only: architectural data
// always lives in the flat backing memory (dirty L1 evictions write
// back immediately, refills read memory), and the extra levels only
// decide the *latency* of each L1 miss. With every extension disabled
// the miss path computes exactly the classic now+MissPenalty, so the
// default timing is bit-identical by construction. See docs/MEMORY.md.
package cache

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/mem"
)

// Config sizes the cache.
type Config struct {
	SizeBytes   uint32 // total capacity (default 8 KiB)
	LineBytes   uint32 // line size (default 32)
	Ways        int    // 1 = direct-mapped, 2 = 2-way set associative
	MissPenalty uint64 // cycles to refill a line from memory
	// Ports caps accesses serviced per cycle; 0 is unlimited. The paper
	// lists "employ more cache ports" among its improvements (§6.1 #1).
	Ports int

	// L2, when non-nil, places a tag-only second-level cache behind the
	// L1: a miss that hits an L2 tag refills in L2.HitLatency cycles
	// instead of MissPenalty. Default off.
	L2 *L2Config
	// VictimEntries, when non-zero, adds a FIFO victim buffer of that
	// many line tags; an L1 miss matching a buffered tag (a recently
	// evicted line) refills in a single cycle. Default off.
	VictimEntries int
	// Prefetch enables a global stride prefetcher on the L1 miss stream;
	// a miss matching a completed prefetch refills in a single cycle.
	// Default off.
	Prefetch bool
}

// L2Config sizes the optional tag-only L2. Lines are the L1's LineBytes.
type L2Config struct {
	SizeBytes   uint32 // total capacity
	Ways        int    // associativity
	HitLatency  uint64 // L1 refill latency on an L2 tag hit
	MissPenalty uint64 // L1 refill latency on an L2 tag miss
}

// DefaultL2 is a representative L2 for studies: 64 KB, 4-way, 4-cycle
// hit, 40-cycle memory penalty. Not enabled by default anywhere.
func DefaultL2() *L2Config {
	return &L2Config{SizeBytes: 64 * 1024, Ways: 4, HitLatency: 4, MissPenalty: 40}
}

// DefaultConfig is the paper's default data cache: 8 KB, 2-way, LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 8 * 1024, LineBytes: 32, Ways: 2, MissPenalty: 12}
}

// DirectMapped is the comparison configuration from the paper.
func DirectMapped() Config {
	c := DefaultConfig()
	c.Ways = 1
	return c
}

// Validate reports configuration errors. New requires a valid config;
// callers building configs from untrusted input validate first.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.LineBytes == 0 || c.Ways <= 0:
		return fmt.Errorf("cache: zero-valued config")
	case c.LineBytes%4 != 0 || (c.LineBytes&(c.LineBytes-1)) != 0:
		return fmt.Errorf("cache: line size %d must be a power-of-two multiple of 4", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*uint32(c.Ways)) != 0:
		return fmt.Errorf("cache: size %d not divisible by line size %d times %d ways", c.SizeBytes, c.LineBytes, c.Ways)
	case c.Ports < 0:
		return fmt.Errorf("cache: negative port count %d", c.Ports)
	}
	nsets := c.SizeBytes / c.LineBytes / uint32(c.Ways)
	if (nsets & (nsets - 1)) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", nsets)
	}
	if c.VictimEntries < 0 || c.VictimEntries > 64 {
		return fmt.Errorf("cache: victim buffer size %d out of range [0,64]", c.VictimEntries)
	}
	if l2 := c.L2; l2 != nil {
		switch {
		case l2.SizeBytes == 0 || l2.Ways <= 0:
			return fmt.Errorf("cache: zero-valued L2 config")
		case l2.HitLatency == 0 || l2.MissPenalty < l2.HitLatency:
			return fmt.Errorf("cache: L2 latencies hit=%d miss=%d must satisfy 1 <= hit <= miss", l2.HitLatency, l2.MissPenalty)
		case l2.SizeBytes%(c.LineBytes*uint32(l2.Ways)) != 0:
			return fmt.Errorf("cache: L2 size %d not divisible by line size %d times %d ways", l2.SizeBytes, c.LineBytes, l2.Ways)
		}
		l2sets := l2.SizeBytes / c.LineBytes / uint32(l2.Ways)
		if (l2sets & (l2sets - 1)) != 0 {
			return fmt.Errorf("cache: L2 set count %d must be a power of two", l2sets)
		}
	}
	return nil
}

// Result is the outcome of a cache request this cycle.
type Result int

const (
	// Hit: the request completed; data is valid.
	Hit Result = iota
	// Miss: the request started a line refill; retry until it hits.
	Miss
	// Busy: the cache cannot service the request this cycle (its line is
	// being refilled, or a second miss has blocked the cache). Retry.
	Busy
)

func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Busy:
		return "busy"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Stats counts cache activity. Hit rate is Hits/(Hits+Misses): each
// architectural access is counted once (the core sets count only on an
// access's first attempt).
type Stats struct {
	Reads, Writes  uint64
	Hits, Misses   uint64
	Refills        uint64
	Writebacks     uint64
	BlockedRejects uint64 // requests refused while the cache was blocked
	PortRejects    uint64 // requests refused for lack of a free port
	Forced         uint64 // misses forced by fault injection (subset of Misses)

	// Hierarchy counters; all zero unless the corresponding extension is
	// enabled. An L1 miss is served by exactly one of victim buffer,
	// prefetch buffer, L2 hit, L2 miss, or (no L2) main memory.
	L2Hits            uint64 // L1 misses served by an L2 tag hit
	L2Misses          uint64 // L1 misses that also missed the L2 tags
	VictimHits        uint64 // L1 misses recovered from the victim buffer
	VictimInserts     uint64 // evicted L1 tags inserted into the victim buffer
	Prefetches        uint64 // prefetches issued by the stride detector
	PrefetchHits      uint64 // L1 misses served by a completed prefetch
	PrefetchEvictions uint64 // unconsumed prefetch entries overwritten
}

// L2HitRate returns the fraction of L2 lookups that hit.
func (s Stats) L2HitRate() float64 {
	total := s.L2Hits + s.L2Misses
	if total == 0 {
		return 1
	}
	return float64(s.L2Hits) / float64(total)
}

// HitRate returns the fraction of counted accesses that hit.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

type line struct {
	tag      uint32
	words    []uint32
	valid    bool
	dirty    bool
	lastUsed uint64 // for LRU
}

// refill is a value type (not heap-allocated) so the miss path stays
// allocation-free; valid distinguishes it from the empty slot.
type refill struct {
	addr    uint32 // line-aligned address
	readyAt uint64
	valid   bool
}

// l2line is a tag-only L2 way: no data words, the backing memory is
// always architecturally current.
type l2line struct {
	tag      uint32
	valid    bool
	lastUsed uint64
}

// victimEntry holds one evicted L1 line tag.
type victimEntry struct {
	tag   uint32
	valid bool
}

// pfEntry is one in-flight or completed prefetch.
type pfEntry struct {
	tag     uint32
	readyAt uint64
	valid   bool
}

const (
	victimHitLatency   = 1 // refill latency when the victim buffer holds the tag
	prefetchHitLatency = 1 // refill latency when a completed prefetch holds the tag
	prefetchBufEntries = 4
)

// Cache is a cycle-level data cache model backed by main memory.
type Cache struct {
	cfg      Config
	sets     [][]line
	backing  *mem.Memory
	nsets    uint32
	useClock uint64

	active  refill // refill in progress
	pending refill // second miss waiting; its presence blocks the cache

	l2      [][]l2line // tag-only L2 sets; nil when disabled
	l2nsets uint32

	victim     []victimEntry // FIFO of evicted L1 tags; nil when disabled
	victimHead int

	pfBuf    [prefetchBufEntries]pfEntry
	pfHead   int
	pfLast   uint32 // previous L1 miss line address
	pfStride int64  // last observed miss-stream delta
	pfStreak int    // consecutive misses matching pfStride

	portsUsed int    // accesses serviced this cycle
	portCycle uint64 // cycle portsUsed refers to

	// FaultDelay, when set, is consulted on each counted access (an
	// architectural access's first attempt); a non-zero return makes the
	// access behave as a miss that completes after that many cycles.
	// Line state is untouched — a forced "miss" must never re-install a
	// line over dirty data — so the perturbation is timing-only.
	FaultDelay func(now uint64, addr uint32, write bool) uint64
	delays     map[uint32]uint64 // addr -> cycle the forced delay expires

	// Observer, when set, receives the cache's coverage events
	// (internal/cover; the core wires it for the D-cache).
	Observer cover.Sink

	stats Stats
}

// New builds a cache over backing memory. The config must be valid
// (Validate); New panics otherwise, so callers handling untrusted
// configs validate first (core.Config.Validate does).
func New(cfg Config, backing *mem.Memory) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint32(cfg.Ways)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
		for w := range sets[i] {
			sets[i][w].words = make([]uint32, cfg.LineBytes/4)
		}
	}
	c := &Cache{cfg: cfg, sets: sets, backing: backing, nsets: nsets,
		delays: make(map[uint32]uint64)}
	if cfg.L2 != nil {
		c.l2nsets = cfg.L2.SizeBytes / cfg.LineBytes / uint32(cfg.L2.Ways)
		c.l2 = make([][]l2line, c.l2nsets)
		for i := range c.l2 {
			c.l2[i] = make([]l2line, cfg.L2.Ways)
		}
	}
	if cfg.VictimEntries > 0 {
		c.victim = make([]victimEntry, cfg.VictimEntries)
	}
	return c
}

func (c *Cache) lineAddr(addr uint32) uint32 { return addr &^ (c.cfg.LineBytes - 1) }
func (c *Cache) setIndex(addr uint32) uint32 { return (addr / c.cfg.LineBytes) % c.nsets }

// lookup returns the way holding addr's line, or nil.
func (c *Cache) lookup(addr uint32) *line {
	set := c.sets[c.setIndex(addr)]
	tag := c.lineAddr(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return &set[w]
		}
	}
	return nil
}

// Tick completes any refill that is due. Call once per cycle before
// issuing requests.
func (c *Cache) Tick(now uint64) {
	for c.active.valid && now >= c.active.readyAt {
		finished := c.active.readyAt
		c.install(c.active.addr, now)
		c.active = c.pending
		c.pending = refill{}
		if c.active.valid {
			// The queued second miss starts its memory access only once
			// the first refill has finished.
			c.active.readyAt = finished + c.missLatency(c.active.addr, finished)
		}
	}
}

// missLatency resolves where an L1 miss is served from and returns the
// refill latency: victim buffer, completed prefetch, L2 tags, then main
// memory. With the whole hierarchy disabled it returns cfg.MissPenalty
// untouched — the classic single-level path. The probe consumes victim
// and prefetch entries and updates L2 state, and every miss trains the
// stride detector.
func (c *Cache) missLatency(la uint32, now uint64) uint64 {
	lat := c.cfg.MissPenalty
	switch {
	case c.victimProbe(la):
		lat = victimHitLatency
		cover.Hit(c.Observer, cover.EvCacheVictimHit, now)
	case c.prefetchProbe(la, now):
		lat = prefetchHitLatency
		cover.Hit(c.Observer, cover.EvCachePrefetchHit, now)
	case c.l2 != nil:
		lat = c.l2Probe(la, now)
	}
	if c.cfg.Prefetch {
		c.trainPrefetch(la, now)
	}
	return lat
}

// victimProbe consumes a victim-buffer entry matching la, if any.
func (c *Cache) victimProbe(la uint32) bool {
	for i := range c.victim {
		if c.victim[i].valid && c.victim[i].tag == la {
			c.victim[i].valid = false
			c.stats.VictimHits++
			return true
		}
	}
	return false
}

// insertVictim records an evicted L1 tag in the FIFO victim buffer.
func (c *Cache) insertVictim(tag uint32) {
	c.victim[c.victimHead] = victimEntry{tag: tag, valid: true}
	c.victimHead = (c.victimHead + 1) % len(c.victim)
	c.stats.VictimInserts++
}

// prefetchProbe consumes a completed prefetch matching la, if any.
func (c *Cache) prefetchProbe(la uint32, now uint64) bool {
	if !c.cfg.Prefetch {
		return false
	}
	for i := range c.pfBuf {
		if c.pfBuf[i].valid && c.pfBuf[i].tag == la && now >= c.pfBuf[i].readyAt {
			c.pfBuf[i].valid = false
			c.stats.PrefetchHits++
			return true
		}
	}
	return false
}

// trainPrefetch feeds the global stride detector with an L1 miss line
// address; two consecutive misses with the same delta trigger a
// prefetch of the next line in the stream.
func (c *Cache) trainPrefetch(la uint32, now uint64) {
	delta := int64(la) - int64(c.pfLast)
	c.pfLast = la
	if delta == 0 {
		return
	}
	if delta == c.pfStride {
		c.pfStreak++
	} else {
		c.pfStride = delta
		c.pfStreak = 1
	}
	if c.pfStreak < 2 {
		return
	}
	next := int64(la) + delta
	if next < 0 || next > int64(^uint32(0)) {
		return
	}
	c.issuePrefetch(uint32(next), now)
}

// issuePrefetch places tag in the prefetch buffer (round-robin),
// evicting any unconsumed entry in its slot. Lines already present in
// the L1 or in flight in the buffer are skipped.
func (c *Cache) issuePrefetch(tag uint32, now uint64) {
	if c.lookup(tag) != nil {
		return
	}
	for i := range c.pfBuf {
		if c.pfBuf[i].valid && c.pfBuf[i].tag == tag {
			return
		}
	}
	if c.pfBuf[c.pfHead].valid {
		c.stats.PrefetchEvictions++
		cover.Hit(c.Observer, cover.EvCachePrefetchEvict, now)
	}
	lat := c.cfg.MissPenalty
	if c.cfg.L2 != nil {
		lat = c.cfg.L2.MissPenalty
	}
	c.pfBuf[c.pfHead] = pfEntry{tag: tag, readyAt: now + lat, valid: true}
	c.pfHead = (c.pfHead + 1) % len(c.pfBuf)
	c.stats.Prefetches++
}

// l2Probe looks la up in the tag-only L2 and returns the resulting L1
// refill latency, allocating the tag (LRU) on a miss.
func (c *Cache) l2Probe(la uint32, now uint64) uint64 {
	set := c.l2[(la/c.cfg.LineBytes)%c.l2nsets]
	c.useClock++
	for w := range set {
		if set[w].valid && set[w].tag == la {
			set[w].lastUsed = c.useClock
			c.stats.L2Hits++
			cover.Hit(c.Observer, cover.EvCacheL2Hit, now)
			return c.cfg.L2.HitLatency
		}
	}
	victim := &set[0]
	for w := 1; w < len(set); w++ {
		if !set[w].valid {
			victim = &set[w]
			break
		}
		if set[w].lastUsed < victim.lastUsed && victim.valid {
			victim = &set[w]
		}
	}
	*victim = l2line{tag: la, valid: true, lastUsed: c.useClock}
	c.stats.L2Misses++
	return c.cfg.L2.MissPenalty
}

// install fills addr's line from memory, evicting the LRU victim.
func (c *Cache) install(addr uint32, now uint64) {
	set := c.sets[c.setIndex(addr)]
	victim := &set[0]
	for w := 1; w < len(set); w++ {
		if !set[w].valid {
			victim = &set[w]
			break
		}
		if set[w].lastUsed < victim.lastUsed && victim.valid {
			victim = &set[w]
		}
	}
	if victim.valid && victim.dirty {
		cover.Hit(c.Observer, cover.EvCacheEvictDirty, now)
		c.writeback(victim)
	}
	if victim.valid && c.victim != nil {
		c.insertVictim(victim.tag)
	}
	base := c.lineAddr(addr)
	for i := range victim.words {
		victim.words[i] = c.backing.LoadWord(base + uint32(i)*4)
	}
	victim.tag = base
	victim.valid = true
	victim.dirty = false
	victim.lastUsed = c.useClock
	c.stats.Refills++
}

func (c *Cache) writeback(l *line) {
	for i, w := range l.words {
		c.backing.StoreWord(l.tag+uint32(i)*4, w)
	}
	l.dirty = false
	c.stats.Writebacks++
}

// blocked reports whether a second miss has wedged the cache.
func (c *Cache) blocked() bool { return c.pending.valid }

// request implements the shared hit/miss/busy state machine.
func (c *Cache) request(addr uint32, now uint64, count, write bool) (*line, Result) {
	if c.blocked() {
		c.stats.BlockedRejects++
		cover.Hit(c.Observer, cover.EvCacheBlockedReject, now)
		return nil, Busy
	}
	if c.cfg.Ports > 0 {
		if now != c.portCycle {
			c.portCycle, c.portsUsed = now, 0
		}
		if c.portsUsed >= c.cfg.Ports {
			c.stats.PortRejects++
			cover.Hit(c.Observer, cover.EvCachePortReject, now)
			return nil, Busy
		}
		c.portsUsed++
	}
	// Fault injection: a forced delay makes this access behave as a miss
	// that completes after the delay, without touching line state.
	if count && c.FaultDelay != nil {
		if d := c.FaultDelay(now, addr, write); d > 0 {
			c.delays[addr] = now + d
			c.stats.Misses++
			c.stats.Forced++
			return nil, Miss
		}
	}
	if until, ok := c.delays[addr]; ok {
		if now < until {
			return nil, Busy
		}
		delete(c.delays, addr)
	}
	if l := c.lookup(addr); l != nil {
		c.useClock++
		l.lastUsed = c.useClock
		if count {
			c.stats.Hits++
		}
		if c.active.valid {
			cover.Hit(c.Observer, cover.EvCacheRefillOverlap, now)
		}
		return l, Hit
	}
	la := c.lineAddr(addr)
	if c.active.valid {
		if c.active.addr == la {
			return nil, Busy // our line is on its way
		}
		// Second miss: queue it and block the cache. Its latency is
		// resolved when the active refill finishes and it is promoted.
		c.pending = refill{addr: la, valid: true}
		cover.Hit(c.Observer, cover.EvCacheSecondMiss, now)
		if count {
			c.stats.Misses++
		}
		return nil, Miss
	}
	c.active = refill{addr: la, readyAt: now + c.missLatency(la, now), valid: true}
	if count {
		c.stats.Misses++
	}
	return nil, Miss
}

// Read requests the word at addr. count marks an access's first attempt
// for hit-rate accounting; retries pass false.
func (c *Cache) Read(addr uint32, now uint64, count bool) (uint32, Result) {
	if count {
		c.stats.Reads++
	}
	l, res := c.request(addr, now, count, false)
	if res != Hit {
		return 0, res
	}
	return l.words[(addr%c.cfg.LineBytes)/4], Hit
}

// ReadReq is one element of a batched read (ReadMany). Addr and Count
// are inputs; Val and Res are filled by the cache.
type ReadReq struct {
	Addr  uint32
	Count bool
	Val   uint32
	Res   Result
}

// ReadMany performs a cycle's worth of reads in request order, each
// with Read's exact semantics (counters, ports, coverage). Batching
// lets the dominant rejection case — the cache blocked on a queued
// second miss — be decided once for the whole batch instead of
// re-walking the request state machine per retry.
func (c *Cache) ReadMany(now uint64, reqs []ReadReq) {
	if c.blocked() {
		for i := range reqs {
			if reqs[i].Count {
				c.stats.Reads++
			}
			c.stats.BlockedRejects++
			cover.Hit(c.Observer, cover.EvCacheBlockedReject, now)
			reqs[i].Val, reqs[i].Res = 0, Busy
		}
		return
	}
	for i := range reqs {
		reqs[i].Val, reqs[i].Res = c.Read(reqs[i].Addr, now, reqs[i].Count)
	}
}

// Write requests a word store at addr (write-allocate: a miss refills
// the line first; the caller retries until Hit).
func (c *Cache) Write(addr, val uint32, now uint64, count bool) Result {
	if count {
		c.stats.Writes++
	}
	l, res := c.request(addr, now, count, true)
	if res != Hit {
		return res
	}
	l.words[(addr%c.cfg.LineBytes)/4] = val
	l.dirty = true
	return Hit
}

// FlushAll writes every dirty line back to memory; used when a run ends
// so memory reflects the architectural state.
func (c *Cache) FlushAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			if l := &c.sets[s][w]; l.valid && l.dirty {
				c.writeback(l)
			}
		}
	}
}

// Pending reports whether any refill is outstanding (used to decide when
// a run has fully drained).
func (c *Cache) Pending() bool { return c.active.valid || c.pending.valid }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }
