// Package fault provides deterministic, seeded schedules of timing-only
// microarchitectural perturbations for robustness testing of the SDSP
// core: forced extra D-cache miss delays, flipped branch-predictor
// counters, delayed writebacks, spurious same-thread squash-and-refetch
// events, delayed synchronization-controller grants, spurious FLDW
// wakeups, fetch-slot faults (policy misdecisions and blocked slots),
// held store-buffer slots, and per-cycle commit-window shrinks. Every
// perturbation attacks a mechanism the paper's
// performance claims rest on (the cache's single outstanding refill,
// the shared 2-bit predictor, the writeback bus, selective squash, the
// sync controller that keeps spinning threads committing, the fetch
// policies of §5.1) while leaving architectural results untouched —
// under any schedule the core must still produce memory byte-identical
// to the functional reference simulator, only slower.
//
// Schedules are stateless: every decision is a pure hash of the seed
// and the event's coordinates (cycle, address, tag). That makes a
// schedule deterministic — the same seed replays the same faults — and
// safe to share across machines running in parallel, which the
// experiment runner requires.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Rates sets the per-opportunity probability of each perturbation.
type Rates struct {
	CacheMiss float64 // per architectural D-cache access: forced miss delay
	Writeback float64 // per completed execution: result held off the bus
	FlipBTB   float64 // per cycle: one BTB counter direction inverted
	Squash    float64 // per correct CT resolution: spurious squash-and-refetch

	SyncGrant  float64 // per sync-controller request: grant delayed 1..16 cycles
	SyncWakeup float64 // per FLDW grant: spurious wakeup (value discarded, re-read)
	FetchMis   float64 // per fetch decision: policy choice overridden
	FetchBlock float64 // per fetch cycle: the fetch slot is stolen outright

	SBHold   float64 // per cycle: store-buffer slots held from newly issuing stores
	CWShrink float64 // per commit cycle: flexible-commit window shrunk toward 1
}

// zero reports whether the schedule would never fire.
func (r Rates) zero() bool {
	return r.CacheMiss <= 0 && r.Writeback <= 0 && r.FlipBTB <= 0 && r.Squash <= 0 &&
		r.SyncGrant <= 0 && r.SyncWakeup <= 0 && r.FetchMis <= 0 && r.FetchBlock <= 0 &&
		r.SBHold <= 0 && r.CWShrink <= 0
}

// Schedule is a deterministic fault schedule implementing the core's
// FaultInjector interface. The zero value injects nothing; build with
// New or ParseSpec.
type Schedule struct {
	seed  uint64
	rates Rates
}

// New builds a schedule from a seed and rates.
func New(seed uint64, rates Rates) *Schedule {
	return &Schedule{seed: seed, rates: rates}
}

// Maximum injected delays, in cycles. Kept moderate: large enough to
// reorder events across the machine (a forced cache delay outlasts the
// real miss penalty), small enough that runs terminate promptly.
const (
	maxCacheDelay     = 32
	maxWritebackDelay = 8
	maxSyncDelay      = 16
	maxSBHold         = 4 // the core additionally caps at StoreBuffer - BlockSize
	maxCWShrink       = 3 // window floor of 1 from the default window of 4
)

// mix is the splitmix64 finalizer: a bijective avalanche mix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Event kind salts, so the same coordinates draw independently per kind.
const (
	kindCacheRead uint64 = 0x6361636865726400 // "cacherd"
	kindCacheWrit uint64 = 0x6361636865777200 // "cachewr"
	kindWriteback uint64 = 0x7772697465626100 // "writeba"
	kindFlip      uint64 = 0x666c697062746200 // "flipbtb"
	kindSquash    uint64 = 0x7371756173680000 // "squash"
	kindSyncGrant uint64 = 0x73796e6367720000 // "syncgr"
	kindSyncWake  uint64 = 0x73796e63776b0000 // "syncwk"
	kindFetchMis  uint64 = 0x66657463686d0000 // "fetchm"
	kindFetchBlk  uint64 = 0x6665746368620000 // "fetchb"
	kindSBHold    uint64 = 0x7362686f6c640000 // "sbhold"
	kindCWShrink  uint64 = 0x6377736872690000 // "cwshri"
)

// roll hashes (kind, a, b) against the seed and compares the result to
// rate. The full hash is returned so callers can derive secondary
// values (delay lengths, slot indices) from independent bits.
func (s *Schedule) roll(kind, a, b uint64, rate float64) (uint64, bool) {
	if rate <= 0 {
		return 0, false
	}
	h := mix(s.seed ^ mix(kind^mix(a)^mix(b)<<1))
	return h, float64(h>>11)/float64(uint64(1)<<53) < rate
}

// CacheDelay implements core.FaultInjector: a forced miss of 1..32
// cycles on a randomly chosen fraction of architectural cache accesses.
func (s *Schedule) CacheDelay(now uint64, addr uint32, write bool) uint64 {
	kind := kindCacheRead
	if write {
		kind = kindCacheWrit
	}
	h, hit := s.roll(kind, now, uint64(addr), s.rates.CacheMiss)
	if !hit {
		return 0
	}
	return 1 + (h>>17)%maxCacheDelay
}

// WritebackDelay implements core.FaultInjector: holds a fraction of
// results off the writeback bus for 1..8 extra cycles.
func (s *Schedule) WritebackDelay(now uint64, tag uint64) uint64 {
	h, hit := s.roll(kindWriteback, now, tag, s.rates.Writeback)
	if !hit {
		return 0
	}
	return 1 + (h>>17)%maxWritebackDelay
}

// FlipPredictor implements core.FaultInjector: on a fraction of cycles,
// inverts the direction of one BTB counter.
func (s *Schedule) FlipPredictor(now uint64) (slot int, ok bool) {
	h, hit := s.roll(kindFlip, now, 0, s.rates.FlipBTB)
	if !hit {
		return 0, false
	}
	return int((h >> 7) & 0x3fffffff), true
}

// SpuriousSquash implements core.FaultInjector: forces a fraction of
// correctly predicted control transfers through full mispredict
// recovery.
func (s *Schedule) SpuriousSquash(now uint64, tag uint64) bool {
	_, hit := s.roll(kindSquash, now, tag, s.rates.Squash)
	return hit
}

// SyncDelay implements core.FaultInjector: delays the synchronization
// controller's grant of a fraction of FLDW/FAI requests by 1..16 cycles
// (a busy controller port; the "delayed lock grant" channel).
func (s *Schedule) SyncDelay(now uint64, addr uint32, rmw bool) uint64 {
	h, hit := s.roll(kindSyncGrant, now, uint64(addr), s.rates.SyncGrant)
	if !hit {
		return 0
	}
	return 1 + (h>>17)%maxSyncDelay
}

// SpuriousWakeup implements core.FaultInjector: a fraction of FLDW
// grants deliver a value the thread must discard and re-request — the
// classic spurious wakeup. The re-read happens a few cycles later and
// supplies the architectural result, so the perturbation is timing-only
// for programs whose outcome is interleaving-independent.
func (s *Schedule) SpuriousWakeup(now uint64, tag uint64) bool {
	_, hit := s.roll(kindSyncWake, now, tag, s.rates.SyncWakeup)
	return hit
}

// FetchMisdecide implements core.FaultInjector: overrides a fraction of
// fetch-policy decisions, redirecting the slot to a different eligible
// thread than the one the policy chose.
func (s *Schedule) FetchMisdecide(now uint64) bool {
	_, hit := s.roll(kindFetchMis, now, 0, s.rates.FetchMis)
	return hit
}

// FetchBlock implements core.FaultInjector: steals a fraction of fetch
// cycles outright — no thread fetches, as if the fetch stage lost
// arbitration for its slot.
func (s *Schedule) FetchBlock(now uint64) bool {
	_, hit := s.roll(kindFetchBlk, now, 0, s.rates.FetchBlock)
	return hit
}

// StoreBufferHold implements core.FaultInjector: on a fraction of
// cycles, holds 1..4 store-buffer slots away from newly issuing stores
// (a busy buffer port). The core further caps the hold so at least a
// block's worth of slots stays claimable, preserving the deadlock-
// avoidance reservation argument.
func (s *Schedule) StoreBufferHold(now uint64) int {
	h, hit := s.roll(kindSBHold, now, 0, s.rates.SBHold)
	if !hit {
		return 0
	}
	return int(1 + (h>>17)%maxSBHold)
}

// CommitWindowShrink implements core.FaultInjector: on a fraction of
// commit cycles, shrinks the flexible-commit window by 1..3 blocks (the
// core floors the window at 1, so bottom-block commit stays available).
func (s *Schedule) CommitWindowShrink(now uint64) int {
	h, hit := s.roll(kindCWShrink, now, 0, s.rates.CWShrink)
	if !hit {
		return 0
	}
	return int(1 + (h>>17)%maxCWShrink)
}

// String renders the canonical spec; ParseSpec(s.String()) rebuilds an
// identical schedule. Experiment cell IDs fold this in.
func (s *Schedule) String() string {
	return fmt.Sprintf("seed=%d,miss=%g,wb=%g,flip=%g,squash=%g,sync=%g,wake=%g,fetch=%g,fblock=%g,sbhold=%g,shrink=%g",
		s.seed, s.rates.CacheMiss, s.rates.Writeback, s.rates.FlipBTB, s.rates.Squash,
		s.rates.SyncGrant, s.rates.SyncWakeup, s.rates.FetchMis, s.rates.FetchBlock,
		s.rates.SBHold, s.rates.CWShrink)
}

// Rates returns the schedule's configured rates.
func (s *Schedule) Rates() Rates { return s.rates }

// Seed returns the schedule's seed.
func (s *Schedule) Seed() uint64 { return s.seed }

// presets are named rate sets for the CLI. "light" stays close to a
// normal run (useful as an always-on smoke schedule); "heavy" pushes
// every mechanism hard; the storms isolate one mechanism each.
var presets = map[string]Rates{
	"light": {CacheMiss: 0.005, Writeback: 0.005, FlipBTB: 0.01, Squash: 0.002,
		SyncGrant: 0.005, SyncWakeup: 0.002, FetchMis: 0.01, FetchBlock: 0.005,
		SBHold: 0.005, CWShrink: 0.005},
	"medium": {CacheMiss: 0.02, Writeback: 0.02, FlipBTB: 0.03, Squash: 0.008,
		SyncGrant: 0.02, SyncWakeup: 0.008, FetchMis: 0.03, FetchBlock: 0.02,
		SBHold: 0.02, CWShrink: 0.02},
	"heavy": {CacheMiss: 0.05, Writeback: 0.05, FlipBTB: 0.08, Squash: 0.02,
		SyncGrant: 0.05, SyncWakeup: 0.02, FetchMis: 0.08, FetchBlock: 0.05,
		SBHold: 0.05, CWShrink: 0.05},
	"cache-storm":  {CacheMiss: 0.25},
	"wb-storm":     {Writeback: 0.25},
	"bpred-storm":  {FlipBTB: 0.5},
	"squash-storm": {Squash: 0.1},
	"sync-storm":   {SyncGrant: 0.25, SyncWakeup: 0.1},
	"fetch-storm":  {FetchMis: 0.25, FetchBlock: 0.25},
	"store-storm":  {SBHold: 0.5},
	"commit-storm": {CWShrink: 0.5},
}

// Presets lists the named presets ParseSpec accepts, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SpecKeys lists the key=value keys ParseSpec accepts, in canonical
// (String) order, seed first.
func SpecKeys() []string {
	return []string{"seed", "miss", "wb", "flip", "squash", "sync", "wake", "fetch", "fblock", "sbhold", "shrink"}
}

// ParseSpec builds a schedule from a comma-separated spec. Each token
// is either a preset name (light, medium, heavy, cache-storm, wb-storm,
// bpred-storm, squash-storm, sync-storm, fetch-storm, store-storm,
// commit-storm) or key=value with keys seed, miss, wb, flip, squash,
// sync, wake, fetch, fblock, sbhold, shrink. Later
// tokens override earlier ones, so "heavy,seed=7,squash=0" is heavy
// rates with seed 7 and squashes off. An unknown key or preset is a
// usage error naming the valid ones — never silently ignored. An empty
// spec or "none" returns (nil, nil): no injection.
func ParseSpec(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	s := &Schedule{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, isKV := strings.Cut(tok, "=")
		if !isKV {
			r, ok := presets[tok]
			if !ok {
				return nil, fmt.Errorf("fault: unknown preset %q (valid presets: %s; valid keys: %s)",
					tok, strings.Join(Presets(), ", "), strings.Join(SpecKeys(), ", "))
			}
			s.rates = r
			continue
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			s.seed = n
			continue
		}
		// Resolve the key before validating the value, so a typo like
		// "sseed=3" reports the unknown key (with the valid list), not a
		// misleading rate-range error.
		var field *float64
		switch key {
		case "miss":
			field = &s.rates.CacheMiss
		case "wb":
			field = &s.rates.Writeback
		case "flip":
			field = &s.rates.FlipBTB
		case "squash":
			field = &s.rates.Squash
		case "sync":
			field = &s.rates.SyncGrant
		case "wake":
			field = &s.rates.SyncWakeup
		case "fetch":
			field = &s.rates.FetchMis
		case "fblock":
			field = &s.rates.FetchBlock
		case "sbhold":
			field = &s.rates.SBHold
		case "shrink":
			field = &s.rates.CWShrink
		default:
			return nil, fmt.Errorf("fault: unknown key %q (valid keys: %s; or a preset: %s)",
				key, strings.Join(SpecKeys(), ", "), strings.Join(Presets(), ", "))
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rate %q for %s: %v", val, key, err)
		}
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("fault: rate %s=%g outside [0,1]", key, f)
		}
		*field = f
	}
	if s.rates.zero() {
		return nil, fmt.Errorf("fault: spec %q injects nothing; use an empty spec to disable injection", spec)
	}
	return s, nil
}
