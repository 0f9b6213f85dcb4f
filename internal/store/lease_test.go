package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestLeaseAcquireHoldRelease(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	l, err := s.AcquireLease("k", "w1", time.Minute)
	if err != nil || l == nil {
		t.Fatalf("first AcquireLease = (%v, %v), want acquired", l, err)
	}
	if l.Key() != "k" {
		t.Errorf("lease key = %q, want k", l.Key())
	}
	// A live, unexpired lease blocks a second claim.
	if l2, err := s.AcquireLease("k", "w2", time.Minute); err != nil || l2 != nil {
		t.Fatalf("second AcquireLease = (%v, %v), want held", l2, err)
	}
	infos := s.Leases()
	if len(infos) != 1 || infos[0].Key != "k" || infos[0].Owner != "w1" || infos[0].Expired {
		t.Errorf("Leases() = %+v, want one live lease for k owned by w1", infos)
	}
	l.Release()
	if got := s.Leases(); len(got) != 0 {
		t.Errorf("Leases() after Release = %+v, want none", got)
	}
	l3, err := s.AcquireLease("k", "w2", time.Minute)
	if err != nil || l3 == nil {
		t.Fatal("AcquireLease after Release failed")
	}
	l3.Release()
	if got := s.Stats().LeasesAcquired; got != 2 {
		t.Errorf("LeasesAcquired = %d, want 2", got)
	}
}

func TestLeaseExpiryBreaksAndRequeues(t *testing.T) {
	var lines []string
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.AcquireLease("k", "wedged", time.Nanosecond)
	if err != nil || l == nil {
		t.Fatal("AcquireLease failed")
	}
	time.Sleep(2 * time.Millisecond) // lease is now expired
	if infos := s.Leases(); len(infos) != 1 || !infos[0].Expired {
		t.Fatalf("Leases() = %+v, want one expired lease", infos)
	}
	// A new claimant breaks the expired lease and takes over.
	l2, err := s.AcquireLease("k", "fresh", time.Minute)
	if err != nil || l2 == nil {
		t.Fatalf("AcquireLease over an expired lease = (%v, %v), want acquired", l2, err)
	}
	if s.Stats().StaleLeasesBroken != 1 {
		t.Errorf("StaleLeasesBroken = %d, want 1", s.Stats().StaleLeasesBroken)
	}
	// The usurped holder notices on its next heartbeat...
	if err := l.Renew(time.Minute); err != ErrLeaseLost {
		t.Errorf("usurped Renew = %v, want ErrLeaseLost", err)
	}
	// ...and its Release must not touch the new holder's lease.
	l.Release()
	if infos := s.Leases(); len(infos) != 1 || infos[0].Owner != "fresh" {
		t.Errorf("Leases() after usurped Release = %+v, want fresh's lease intact", infos)
	}
	l2.Release()
	if len(lines) == 0 {
		t.Error("breaking an expired lease produced no diagnostic")
	}
}

func TestLeaseRenewExtendsExpiry(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	l, err := s.AcquireLease("k", "w", 50*time.Millisecond)
	if err != nil || l == nil {
		t.Fatal("AcquireLease failed")
	}
	before := s.Leases()[0].Expires
	if err := l.Renew(time.Minute); err != nil {
		t.Fatalf("Renew = %v", err)
	}
	after := s.Leases()[0].Expires
	if !after.After(before) {
		t.Errorf("Renew did not extend expiry: %v -> %v", before, after)
	}
	l.Release()
}

func TestLeaseFromDeadOrReusedPIDIsBroken(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	path := s.leasePath("k")

	// Dead PID, unexpired: broken (SIGKILLed worker).
	body, _ := json.Marshal(&leaseBody{
		Version: Version, Key: "k", Owner: "dead", Nonce: 1,
		procIdent:       procIdent{PID: 1 << 30},
		ExpiresUnixNano: time.Now().Add(time.Hour).UnixNano(),
	})
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := s.AcquireLease("k", "w", time.Minute)
	if err != nil || l == nil {
		t.Fatalf("AcquireLease over a dead-PID lease = (%v, %v), want acquired", l, err)
	}
	l.Release()

	// Live PID with a mismatched start time: the PID was recycled by an
	// unrelated process, so the lease is equally stale.
	self := selfIdent()
	if self.Start == 0 {
		t.Skip("no process start time available on this host")
	}
	body, _ = json.Marshal(&leaseBody{
		Version: Version, Key: "k", Owner: "ghost", Nonce: 2,
		procIdent:       procIdent{PID: self.PID, Start: self.Start + 99},
		ExpiresUnixNano: time.Now().Add(time.Hour).UnixNano(),
	})
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = s.AcquireLease("k", "w", time.Minute)
	if err != nil || l == nil {
		t.Fatalf("AcquireLease over a PID-reused lease = (%v, %v), want acquired", l, err)
	}
	l.Release()
}

func TestBreakExpiredLeasesSweep(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	exp, err := s.AcquireLease("expired", "w", time.Nanosecond)
	if err != nil || exp == nil {
		t.Fatal("AcquireLease failed")
	}
	live, err := s.AcquireLease("live", "w", time.Hour)
	if err != nil || live == nil {
		t.Fatal("AcquireLease failed")
	}
	time.Sleep(2 * time.Millisecond)
	if broken := s.BreakExpiredLeases(); broken != 1 {
		t.Errorf("BreakExpiredLeases = %d, want 1", broken)
	}
	infos := s.Leases()
	if len(infos) != 1 || infos[0].Key != "live" {
		t.Errorf("after sweep Leases() = %+v, want only the live lease", infos)
	}
	live.Release()
}

func TestLeaseConcurrentClaimOneWinner(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	const claimants = 16
	var wg sync.WaitGroup
	won := make(chan *CellLease, claimants)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := s.AcquireLease("k", "w", time.Minute)
			if err != nil {
				t.Errorf("AcquireLease: %v", err)
			}
			if l != nil {
				won <- l
			}
		}()
	}
	wg.Wait()
	close(won)
	var winners []*CellLease
	for l := range won {
		winners = append(winners, l)
	}
	if len(winners) != 1 {
		t.Fatalf("%d claimants acquired the same lease, want exactly 1", len(winners))
	}
	winners[0].Release()
}

// TestStaleLockFromReusedPIDIsBroken is the regression test for the
// PID-reuse hole: a lock whose PID is alive but names a different
// process incarnation (start time mismatch) must be broken, while a
// lock carrying this process's true identity must be honored.
func TestStaleLockFromReusedPIDIsBroken(t *testing.T) {
	self := selfIdent()
	if self.Start == 0 {
		t.Skip("no process start time available on this host")
	}
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	lockPath := filepath.Join(dir, "locks", HashKey("k")+".lock")

	// Our own live PID, but a start time from a previous incarnation:
	// before the fix pidAlive(PID) kept this lock alive forever.
	body, _ := json.Marshal(lockBody{procIdent: procIdent{PID: self.PID, Start: self.Start + 1}})
	if err := os.WriteFile(lockPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock over a PID-reused lock = (%v, %v), want broken and acquired", l, err)
	}
	l.Unlock()
	if s.Stats().StaleLocksBroken != 1 {
		t.Errorf("StaleLocksBroken = %d, want 1", s.Stats().StaleLocksBroken)
	}

	// The genuine identity of a live process is honored.
	body, _ = json.Marshal(lockBody{procIdent: self})
	if err := os.WriteFile(lockPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := s.TryLock("k"); err != nil || l != nil {
		t.Fatalf("TryLock against a genuinely live lock = (%v, %v), want held", l, err)
	}
	// A lock written by an old binary (PID only, no start time) still
	// degrades to PID liveness rather than being broken.
	body, _ = json.Marshal(lockBody{procIdent: procIdent{PID: self.PID}})
	if err := os.WriteFile(lockPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := s.TryLock("k"); err != nil || l != nil {
		t.Fatalf("TryLock against a start-less live lock = (%v, %v), want held", l, err)
	}
	os.Remove(lockPath)
}

func TestPidStartTimeSelf(t *testing.T) {
	start, ok := pidStartTime(os.Getpid())
	if !ok {
		t.Skip("procfs unavailable")
	}
	if start == 0 {
		t.Error("own start time parsed as 0")
	}
	again, ok := pidStartTime(os.Getpid())
	if !ok || again != start {
		t.Errorf("start time unstable: %d then %d", start, again)
	}
	if _, ok := pidStartTime(1 << 30); ok {
		t.Error("nonexistent PID reported a start time")
	}
	if self := selfIdent(); self.PID != os.Getpid() || self.Start != start {
		t.Errorf("cached identity %+v, want pid %d start %d", self, os.Getpid(), start)
	}
}

func TestForceReadOnlyRefusesWritesAndLeases(t *testing.T) {
	s := open(t, filepath.Join(t.TempDir(), "store"))
	if err := s.Put("k", sampleStats(5)); err != nil {
		t.Fatal(err)
	}
	s.ForceReadOnly()
	if !s.ReadOnly() {
		t.Fatal("ForceReadOnly did not mark the store read-only")
	}
	if got, ok := s.Get("k"); !ok || got.Cycles != 5 {
		t.Error("read-only store lost read access")
	}
	if err := s.Put("k2", sampleStats(6)); err == nil || !IsTransient(err) {
		t.Errorf("Put on forced-read-only store = %v, want transient failure", err)
	}
	if l, err := s.AcquireLease("k2", "w", time.Minute); err != nil || l != nil {
		t.Errorf("AcquireLease on read-only store = (%v, %v), want declined", l, err)
	}
}
