package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// discard is a no-op logger for tests that don't inspect diagnostics.
func discard(string, ...any) {}

// logTo returns a logger appending each line to lines.
func logTo(lines *[]string) func(string, ...any) {
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		*lines = append(*lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
}

func sampleStats(cycles uint64) *core.Stats {
	st := &core.Stats{
		Cycles:            cycles,
		Committed:         cycles / 2,
		CommittedByThread: []uint64{10, 20, 30, 40},
		Faults:            core.FaultCounts{"cache-miss": 7},
	}
	st.FUUsage[0] = []uint64{1, 2}
	return st
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	want := sampleStats(12345)
	if err := s.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok {
		t.Fatal("committed cell missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the stats:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := s.Get("k2"); ok {
		t.Error("uncommitted key hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Commits != 1 || st.Repairs != 0 {
		t.Errorf("counters = %+v, want 1 hit / 1 miss / 1 commit / 0 repairs", st)
	}
}

func TestReopenSeesCommittedCells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	if err := s.Put("k", sampleStats(99)); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	got, ok := s2.Get("k")
	if !ok || got.Cycles != 99 {
		t.Fatalf("reopened store lost the cell (ok=%v)", ok)
	}
}

// onlyRecord returns the location of the single record in the store
// at dir.
func onlyRecord(t *testing.T, dir string) (path string, rec Record) {
	t.Helper()
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records, want 1", len(recs))
	}
	return filepath.Join(dir, "segments", recs[0].Segment), recs[0]
}

// patchSegment rewrites the segment at path through edit.
func patchSegment(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Any corruption of a committed record must degrade to a recomputed
// cell: the Get is a miss counted as one repair with a diagnostic, and
// a later Put is served again, also after reopen.
func TestCorruptionDegradesToMiss(t *testing.T) {
	const key = "k"
	body := func(rec Record) (int, int) { // body extent in the segment
		start := int(rec.Offset) + frameHeader + len(key)
		return start, int(rec.Offset + rec.Size)
	}
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, data []byte, rec Record) []byte
	}{
		{"flipped-payload-byte", func(t *testing.T, data []byte, rec Record) []byte {
			lo, hi := body(rec)
			i := strings.Index(string(data[lo:hi]), `"Cycles":`)
			if i < 0 {
				t.Fatal("payload has no Cycles field")
			}
			data[lo+i+len(`"Cycles":`)] ^= 0x01 // a digit of the cycle count
			return data
		}},
		// The frame's key no longer names the cell.
		{"wrong-key", func(_ *testing.T, data []byte, rec Record) []byte {
			data[rec.Offset+frameHeader] ^= 0x01
			return data
		}},
		// The envelope is cut in half inside a complete-looking segment.
		{"truncated-json", func(_ *testing.T, data []byte, rec Record) []byte {
			lo, hi := body(rec)
			return data[:lo+(hi-lo)/2]
		}},
		// The whole segment is gone to zero bytes.
		{"empty-file", func(*testing.T, []byte, Record) []byte { return nil }},
		{"wrong-version", func(t *testing.T, data []byte, rec Record) []byte {
			lo, hi := body(rec)
			v := fmt.Sprintf(`{"version":%d,`, Version)
			if !strings.HasPrefix(string(data[lo:hi]), v) {
				t.Fatal("envelope does not start with its version")
			}
			data[lo+len(v)-2]++ // the version's last digit
			return data
		}},
		// The envelope's first two fields swapped, the payload bytes
		// unchanged: valid JSON of the same length with a correct
		// checksum, but not the bytes Put writes.
		{"re-encoded-envelope", func(t *testing.T, data []byte, rec Record) []byte {
			lo, hi := body(rec)
			v, k := fmt.Sprintf(`{"version":%d,`, Version), fmt.Sprintf(`"key":%q,`, key)
			if !strings.HasPrefix(string(data[lo:hi]), v+k) {
				t.Fatal("envelope does not start with its version and key")
			}
			copy(data[lo:], "{"+k+v[1:])
			if !json.Valid(data[lo:hi]) {
				t.Fatal("the re-encoded envelope is not valid JSON")
			}
			return data
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			var lines []string
			dir := filepath.Join(t.TempDir(), "store")
			s, err := Open(dir, logTo(&lines))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, sampleStats(777)); err != nil {
				t.Fatal(err)
			}
			path, rec := onlyRecord(t, dir)
			patchSegment(t, path, func(data []byte) []byte { return tc.corrupt(t, data, rec) })
			if st, ok := s.Get(key); ok {
				t.Fatalf("corrupt record served as a hit: %+v", st)
			}
			if s.Stats().Repairs != 1 {
				t.Errorf("repairs = %d, want 1", s.Stats().Repairs)
			}
			if len(lines) == 0 {
				t.Error("repair produced no diagnostic")
			}
			if s.Committed(key) {
				t.Error("repaired record still counts as committed")
			}
			// The cell recomputes and commits again.
			if err := s.Put(key, sampleStats(777)); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || got.Cycles != 777 {
				t.Error("repaired cell did not recommit")
			}
			if got, ok := open(t, dir).Get(key); !ok || got.Cycles != 777 {
				t.Error("recommitted cell lost across reopen")
			}
			if s.Stats().Repairs != 1 {
				t.Errorf("repairs = %d after recommit, want 1", s.Stats().Repairs)
			}
		})
	}
}

// TestTornTailIsAMissNotARepair: a writer killed mid-append leaves its
// last record cut short. That cell was never committed, so it is a
// plain miss; every earlier record is still served.
func TestTornTailIsAMissNotARepair(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	for i := range 5 {
		if err := s.Put(fmt.Sprintf("k%d", i), sampleStats(uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Records(dir)
	if err != nil || len(recs) != 5 {
		t.Fatalf("Records = %d records, %v; want 5", len(recs), err)
	}
	last := recs[4]
	path := filepath.Join(dir, "segments", last.Segment)
	if err := os.Truncate(path, last.Offset+last.Size-7); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	for i := range 4 {
		if got, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok || got.Cycles != uint64(i)+1 {
			t.Errorf("k%d: record before the torn tail lost (ok=%v)", i, ok)
		}
	}
	if _, ok := s2.Get("k4"); ok {
		t.Fatal("torn record served")
	}
	if st := s2.Stats(); st.Repairs != 0 || st.Misses != 1 {
		t.Errorf("counters = %+v, want 1 miss and no repair", st)
	}
	if err := s2.Put("k4", sampleStats(5)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{s2, open(t, dir)} {
		if got, ok := h.Get("k4"); !ok || got.Cycles != 5 {
			t.Error("new handle's Put of the torn key not served")
		}
	}
}

// TestDamagedSegmentIsSealed: a frame header that is not one hides
// the records behind it. They are misses, a diagnostic names the
// segment, and recomputed cells are served from a new segment.
func TestDamagedSegmentIsSealed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	for i := range 3 {
		if err := s.Put(fmt.Sprintf("k%d", i), sampleStats(uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Records(dir)
	if err != nil || len(recs) != 3 {
		t.Fatalf("Records = %d records, %v; want 3", len(recs), err)
	}
	patchSegment(t, filepath.Join(dir, "segments", recs[1].Segment), func(data []byte) []byte {
		data[recs[1].Offset] ^= 0xff // k1's magic number
		return data
	})

	var lines []string
	s2, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], recs[1].Segment) {
		t.Errorf("diagnostics = %q, want one naming the damaged segment", lines)
	}
	if _, ok := s2.Get("k0"); !ok {
		t.Error("record before the damage lost")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := s2.Get(k); ok {
			t.Errorf("%s behind the damage served", k)
		}
		if err := s2.Put(k, sampleStats(9)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"k1", "k2"} {
		if got, ok := open(t, dir).Get(k); !ok || got.Cycles != 9 {
			t.Errorf("recomputed %s not served after reopen", k)
		}
	}
}

// TestColdCellsLeaveOneSegment: a cold sweep's cells on one handle go
// to one segment, its locks link to one owner file, and no lock
// outlives its cell.
func TestColdCellsLeaveOneSegment(t *testing.T) {
	for _, n := range []int{1, 200} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			s := open(t, dir)
			for i := range n {
				key := fmt.Sprintf("cell%d", i)
				l, err := s.TryLock(key)
				if err != nil || l == nil {
					t.Fatalf("TryLock(%s) = (%v, %v), want acquired", key, l, err)
				}
				if err := s.Put(key, sampleStats(uint64(i))); err != nil {
					t.Fatal(err)
				}
				l.Unlock()
			}
			for sub, want := range map[string]int{"segments": 1, "owners": 1, "locks": 0} {
				entries, err := os.ReadDir(filepath.Join(dir, sub))
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != want {
					t.Errorf("%s/ holds %d entries, want %d", sub, len(entries), want)
				}
			}
			if recs, err := Records(dir); err != nil || len(recs) != n {
				t.Errorf("Records = %d records, %v; want %d", len(recs), err, n)
			}
		})
	}
}

// TestTwoHandlesShareOneDirectory: handles on one directory see each
// other's Puts without reopening, while both write concurrently.
func TestTwoHandlesShareOneDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	handles := []*Store{open(t, dir), open(t, dir)}
	const perHandle = 20
	key := func(h, i int) string { return fmt.Sprintf("h%d-k%d", h, i) }
	var wg sync.WaitGroup
	for h, s := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perHandle {
				if err := s.Put(key(h, i), sampleStats(uint64(100*h+i))); err != nil {
					t.Error(err)
				}
				s.Get(key(1-h, i)) // the peer's cell, committed or not yet
			}
		}()
	}
	wg.Wait()
	for h, s := range handles {
		peer := 1 - h
		for i := range perHandle {
			k := key(peer, i)
			if !s.Committed(k) {
				t.Errorf("handle %d: peer's %s not committed", h, k)
			}
			if got, ok := s.Get(k); !ok || got.Cycles != uint64(100*peer+i) {
				t.Errorf("handle %d: peer's %s not served (ok=%v)", h, k, ok)
			}
		}
		hs, err := s.CellHashes()
		if err != nil || len(hs) != 2*perHandle {
			t.Errorf("handle %d: CellHashes = %d hashes, %v; want %d", h, len(hs), err, 2*perHandle)
		}
		if st := s.Stats(); st.Repairs != 0 {
			t.Errorf("handle %d repaired %d records", h, st.Repairs)
		}
	}
}

// TestOpenRemovesDeadOwners: owner files of dead processes, and the
// temp files of a publisher killed mid-write, are removed at Open; a
// live process's owner file stays.
func TestOpenRemovesDeadOwners(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	if l, err := s.TryLock("k"); err != nil || l == nil {
		t.Fatalf("TryLock = (%v, %v), want acquired", l, err)
	} else {
		l.Unlock()
	}
	owners := filepath.Join(dir, "owners")
	dead := procIdent{PID: 1 << 30, Start: 7} // beyond pid_max: never alive
	for _, name := range []string{
		fmt.Sprintf("%d-%d.owner", dead.PID, dead.Start),
		fmt.Sprintf("%d-%d.owner.tmp123", dead.PID, dead.Start),
	} {
		body, _ := json.Marshal(lockBody{procIdent: dead})
		if err := os.WriteFile(filepath.Join(owners, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open(t, dir)
	entries, err := os.ReadDir(owners)
	if err != nil {
		t.Fatal(err)
	}
	self := selfIdent()
	if len(entries) != 1 || entries[0].Name() != fmt.Sprintf("%d-%d.owner", self.PID, self.Start) {
		t.Errorf("owners/ after Open = %v, want only this process's owner file", entries)
	}
}

// TestTempFilesAreInertAndSwept: a temp file a killed writer leaves
// next to a quarantine entry or a lease changes nothing, and reopening
// sweeps it.
func TestTempFilesAreInertAndSwept(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	if err := s.Quarantine(QuarantineEntry{Key: "k", Reason: "twice"}); err != nil {
		t.Fatal(err)
	}
	leftovers := []string{
		s.quarantinePath("k") + ".tmp12345",
		s.leasePath("k") + ".tmp12345",
	}
	for _, p := range leftovers {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if e, ok := s.Quarantined("k"); !ok || e.Reason != "twice" {
		t.Fatal("temp file disturbed the quarantine entry")
	}
	if len(s.Leases()) != 0 {
		t.Fatal("temp file read as a lease")
	}
	s2 := open(t, dir)
	for _, p := range leftovers {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("reopen did not sweep %s", filepath.Base(p))
		}
	}
	if _, ok := s2.Quarantined("k"); !ok {
		t.Error("sweep removed a committed quarantine entry")
	}
}

func TestLockProtocol(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("first TryLock = (%v, %v), want acquired", l, err)
	}
	// The holder (this live process) blocks a second acquisition.
	if l2, _ := s.TryLock("k"); l2 != nil {
		t.Fatal("second TryLock acquired a held lock")
	}
	l.Unlock()
	l3, err := s.TryLock("k")
	if err != nil || l3 == nil {
		t.Fatal("TryLock after Unlock failed")
	}
	l3.Unlock()
}

func TestStaleLockFromDeadPIDIsBroken(t *testing.T) {
	var lines []string
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatal(err)
	}
	lockPath := filepath.Join(dir, "locks", HashKey("k")+".lock")
	// PIDs are capped well below this on Linux (/proc/sys/kernel/pid_max
	// maxes at 2^22), so the owner is guaranteed dead.
	body, _ := json.Marshal(lockBody{procIdent: procIdent{PID: 1 << 30}})
	if err := os.WriteFile(lockPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock over a dead-PID lock = (%v, %v), want acquired", l, err)
	}
	l.Unlock()
	if s.Stats().StaleLocksBroken != 1 {
		t.Errorf("StaleLocksBroken = %d, want 1", s.Stats().StaleLocksBroken)
	}
	if len(lines) == 0 {
		t.Error("breaking a stale lock produced no diagnostic")
	}

	// A torn (garbage) lock file is equally stale.
	if err := os.WriteFile(lockPath, []byte("{to"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = s.TryLock("k")
	if err != nil || l == nil {
		t.Fatal("TryLock over a torn lock file did not acquire")
	}
	l.Unlock()
}

func TestReadOnlyStoreDegrades(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: file modes do not enforce read-only")
	}
	var lines []string
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", sampleStats(3)); err != nil {
		t.Fatal(err)
	}
	var locked []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			locked = append(locked, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range locked {
		if err := os.Chmod(p, 0o555); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, p := range locked {
			os.Chmod(p, 0o755)
		}
	})

	s2, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatalf("read-only store must open for reading: %v", err)
	}
	if got, ok := s2.Get("k"); !ok || got.Cycles != 3 {
		t.Error("read-only store lost read access to committed cells")
	}
	if _, ok := s2.Get("missing"); ok {
		t.Error("read-only store invented a cell")
	}
	if err := s2.Put("k2", sampleStats(4)); err == nil {
		t.Error("Put on a read-only store reported success")
	} else if !IsTransient(err) {
		t.Error("read-only Put error is not marked transient")
	}
	if l, err := s2.TryLock("k2"); err != nil || l != nil {
		t.Error("read-only store handed out a lock")
	}
	if s2.Stats().PutFailures == 0 {
		t.Error("failed Put not counted")
	}
	if len(lines) == 0 {
		t.Error("read-only degradation produced no diagnostic")
	}
}

func TestOpenRejectsMissingParent(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "no", "such", "store"), discard)
	if err == nil || !strings.Contains(err.Error(), "parent directory") {
		t.Fatalf("Open with a missing parent = %v, want a parent-directory error", err)
	}
}

func TestOpenRejectsForeignVersion(t *testing.T) {
	// v2 is the one-file-per-cell layout this build replaced.
	for _, marker := range []string{"sdsp-store v2\n", "sdsp-store v999\n"} {
		dir := filepath.Join(t.TempDir(), "store")
		open(t, dir)
		if err := os.WriteFile(filepath.Join(dir, versionFile), []byte(marker), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, discard)
		if err == nil || !strings.Contains(err.Error(), strings.TrimSpace(marker)) {
			t.Fatalf("Open of a %q store = %v, want a refusal naming its layout", marker, err)
		}
	}
}

func TestQuarantineRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	e := QuarantineEntry{Key: "k", Label: "LL1", Reason: "machine error twice", Bundle: "/tmp/bundle"}
	if err := s.Quarantine(e); err != nil {
		t.Fatal(err)
	}
	got, ok := open(t, dir).Quarantined("k")
	if !ok {
		t.Fatal("quarantine entry lost across reopen")
	}
	if got.Reason != e.Reason || got.Bundle != e.Bundle || got.Label != e.Label {
		t.Errorf("entry changed: %+v", got)
	}
	if _, ok := s.Quarantined("other"); ok {
		t.Error("unquarantined key reported quarantined")
	}
	// Corrupt entry: repaired to a miss.
	if err := os.WriteFile(s.quarantinePath("k"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Quarantined("k"); ok {
		t.Error("corrupt quarantine entry still quarantines")
	}
}

func TestTransientMarking(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	err := Transient(os.ErrPermission)
	if !IsTransient(err) {
		t.Error("marked error not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", err)) {
		t.Error("wrapping hides transience")
	}
	if IsTransient(os.ErrPermission) {
		t.Error("unmarked error reported transient")
	}
}

// TestConcurrentAccess exercises the store from many goroutines for the
// race detector: mixed Get/Put/TryLock on overlapping keys.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i%5)
				if l, _ := s.TryLock(key); l != nil {
					if _, ok := s.Get(key); !ok {
						if err := s.Put(key, sampleStats(uint64(i%5)+1)); err != nil {
							t.Error(err)
						}
					}
					l.Unlock()
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if got, ok := s.Get(key); !ok || got.Cycles != uint64(i)+1 {
			t.Errorf("%s: ok=%v", key, ok)
		}
	}
}

func TestHashKeyIsStable(t *testing.T) {
	if HashKey("abc") != HashKey("abc") || len(HashKey("abc")) != 64 {
		t.Fatal("HashKey is not a stable sha256 hex")
	}
	if HashKey("abc") == HashKey("abd") {
		t.Fatal("distinct keys collide")
	}
}

func TestCellHashes(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	if hs, err := s.CellHashes(); err != nil || len(hs) != 0 {
		t.Fatalf("empty store: %v, %v", hs, err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, sampleStats(1)); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := s.CellHashes()
	if err != nil || len(hs) != 3 {
		t.Fatalf("CellHashes = %v, %v; want 3 entries", hs, err)
	}
	seen := map[string]bool{}
	for _, h := range hs {
		seen[h] = true
	}
	for _, k := range []string{"a", "b", "c"} {
		if !seen[HashKey(k)] {
			t.Errorf("missing hash for %q", k)
		}
	}
}
