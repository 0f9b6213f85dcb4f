package store

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// claimPath is where a claim on key lives in the store at dir.
func claimPath(dir, key string) string {
	return filepath.Join(dir, "locks", HashKey(key)+".lock")
}

// writeClaim plants a claim on key holding body, as another process
// would, last touched age ago.
func writeClaim(t *testing.T, dir, key string, body []byte, age time.Duration) {
	t.Helper()
	path := claimPath(dir, key)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	then := time.Now().Add(-age)
	if err := os.Chtimes(path, then, then); err != nil {
		t.Fatal(err)
	}
}

// ownerBody encodes an owner file naming id with the given lease.
func ownerBody(id procIdent, lease time.Duration) []byte {
	body, _ := json.Marshal(lockBody{procIdent: id, Lease: lease})
	return body
}

// TestLeaseAcquireHoldRelease: the owner file declares the lease
// Heartbeat was given, and a claim is listed under its cell's content
// address, named by its holding process, until Unlock.
func TestLeaseAcquireHoldRelease(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	defer s.Heartbeat(time.Minute)()
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock = (%v, %v), want acquired", l, err)
	}
	self := selfIdent()
	data, err := os.ReadFile(filepath.Join(dir, "owners", fmt.Sprintf("%d-%d.owner", self.PID, self.Start)))
	if err != nil {
		t.Fatal(err)
	}
	var owner lockBody
	if err := json.Unmarshal(data, &owner); err != nil || owner.procIdent != self || owner.Lease != time.Minute {
		t.Errorf("owner file = %s, want this process with a 1m lease", data)
	}
	want := map[string]string{HashKey("k"): fmt.Sprintf("%d-%d", self.PID, self.Start)}
	if got := s.Claims(); !maps.Equal(got, want) {
		t.Errorf("Claims() = %v, want %v", got, want)
	}
	l.Unlock()
	if got := s.Claims(); len(got) != 0 {
		t.Errorf("Claims() after Unlock = %v, want none", got)
	}
}

// TestLeaseExpiryBreaksAndRequeues: a claim whose live owner has been
// silent past the lease it declared is broken by the next claim
// attempt, with a diagnostic; and a holder whose claim was broken and
// retaken leaves the new holder's claim alone when it unlocks.
func TestLeaseExpiryBreaksAndRequeues(t *testing.T) {
	self := selfIdent()
	var lines []string
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, logTo(&lines))
	if err != nil {
		t.Fatal(err)
	}
	writeClaim(t, dir, "k", ownerBody(self, 10*time.Millisecond), time.Minute)
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock over a claim silent past its lease = (%v, %v), want acquired", l, err)
	}
	if s.Stats().StaleLocksBroken != 1 {
		t.Errorf("StaleLocksBroken = %d, want 1", s.Stats().StaleLocksBroken)
	}
	if len(lines) == 0 {
		t.Error("breaking an expired claim produced no diagnostic")
	}

	// Another process breaks this claim and takes the cell.
	if err := os.Remove(claimPath(dir, "k")); err != nil {
		t.Fatal(err)
	}
	writeClaim(t, dir, "k", ownerBody(self, time.Hour), 0)
	l.Unlock()
	if _, err := os.Stat(claimPath(dir, "k")); err != nil {
		t.Errorf("the usurped holder's Unlock removed the new holder's claim: %v", err)
	}
}

// TestLeaseRenewExtendsExpiry: a heartbeating owner's claim survives
// several lease horizons, against claim attempts and supervision
// passes alike.
func TestLeaseRenewExtendsExpiry(t *testing.T) {
	const lease = 250 * time.Millisecond
	s := open(t, filepath.Join(t.TempDir(), "store"))
	defer s.Heartbeat(lease)()
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock = (%v, %v), want acquired", l, err)
	}
	for end := time.Now().Add(4 * lease); time.Now().Before(end); time.Sleep(lease / 5) {
		if l2, err := s.TryLock("k"); err != nil || l2 != nil {
			t.Fatalf("TryLock against a heartbeating owner = (%v, %v), want held", l2, err)
		}
		s.BreakStaleClaims()
	}
	if n := s.Stats().StaleLocksBroken; n != 0 {
		t.Errorf("StaleLocksBroken = %d, want 0", n)
	}
	if len(s.Claims()) != 1 {
		t.Error("the heartbeating owner's claim is not listed")
	}
	l.Unlock()
}

// TestLeaseIsTheHolders: a claim is judged by the lease its holder
// declared, not by the claimant's, so fleet members with different
// -lease values never break each other's live claims.
func TestLeaseIsTheHolders(t *testing.T) {
	self := selfIdent()
	short := filepath.Join(t.TempDir(), "store")
	s := open(t, short)
	defer s.Heartbeat(10 * time.Millisecond)()
	// Last heard from a minute ago, well within its hour.
	writeClaim(t, short, "k", ownerBody(self, time.Hour), time.Minute)
	if l, err := s.TryLock("k"); err != nil || l != nil {
		t.Errorf("a short-lease claimant took a long-lease holder's live claim: (%v, %v)", l, err)
	}
	s.BreakStaleClaims()
	if len(s.Claims()) != 1 {
		t.Error("a short-lease supervisor broke a long-lease holder's live claim")
	}

	long := filepath.Join(t.TempDir(), "store")
	s2 := open(t, long)
	defer s2.Heartbeat(time.Hour)()
	writeClaim(t, long, "k", ownerBody(self, 10*time.Millisecond), time.Minute)
	if l, err := s2.TryLock("k"); err != nil || l == nil {
		t.Errorf("a long-lease claimant kept a short-lease holder's expired claim: (%v, %v)", l, err)
	}
}

// TestLeaseFromDeadOrReusedPIDIsBroken: a claim whose owner is gone is
// broken at once, however long a lease it declared: a killed worker's
// cell requeues without waiting out the lease.
func TestLeaseFromDeadOrReusedPIDIsBroken(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	writeClaim(t, dir, "k", ownerBody(procIdent{PID: 1 << 30}, time.Hour), 0)
	l, err := s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock over a dead owner's claim = (%v, %v), want acquired", l, err)
	}
	l.Unlock()

	// A live PID with a mismatched start time: the PID was recycled by an
	// unrelated process, so the claim is equally stale.
	self := selfIdent()
	if self.Start == 0 {
		t.Skip("no process start time available on this host")
	}
	writeClaim(t, dir, "k", ownerBody(procIdent{PID: self.PID, Start: self.Start + 99}, time.Hour), 0)
	l, err = s.TryLock("k")
	if err != nil || l == nil {
		t.Fatalf("TryLock over a PID-reused claim = (%v, %v), want acquired", l, err)
	}
	l.Unlock()
}

// TestBreakExpiredLeasesSweep: the supervision pass breaks every stale
// claim — silent past its lease, dead owner, torn — and only those.
func TestBreakExpiredLeasesSweep(t *testing.T) {
	self := selfIdent()
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
	writeClaim(t, dir, "expired", ownerBody(self, 10*time.Millisecond), time.Minute)
	writeClaim(t, dir, "dead", ownerBody(procIdent{PID: 1 << 30}, time.Hour), 0)
	writeClaim(t, dir, "torn", []byte("{to"), 0)
	live, err := s.TryLock("live")
	if err != nil || live == nil {
		t.Fatalf("TryLock = (%v, %v), want acquired", live, err)
	}
	s.BreakStaleClaims()
	if n := s.Stats().StaleLocksBroken; n != 3 {
		t.Errorf("StaleLocksBroken = %d, want 3", n)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "locks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != HashKey("live")+".lock" {
		t.Errorf("locks/ after the pass = %v, want only the live claim", entries)
	}
	live.Unlock()
}

// TestLeaseConcurrentClaimOneWinner: of 16 handles racing to claim one
// cell, publishing their process's owner file as they go, exactly one
// wins.
func TestLeaseConcurrentClaimOneWinner(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	const claimants = 16
	handles := make([]*Store, claimants)
	for i := range handles {
		handles[i] = open(t, dir)
	}
	var wg sync.WaitGroup
	won := make(chan *Lock, claimants)
	for _, s := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := s.TryLock("k")
			if err != nil {
				t.Errorf("TryLock: %v", err)
			}
			if l != nil {
				won <- l
			}
		}()
	}
	wg.Wait()
	close(won)
	var winners []*Lock
	for l := range won {
		winners = append(winners, l)
	}
	if len(winners) != 1 {
		t.Fatalf("%d claimants acquired the same cell, want exactly 1", len(winners))
	}
	winners[0].Unlock()
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
	dir := filepath.Join(t.TempDir(), "store")
	s := open(t, dir)
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
	s.Heartbeat(time.Minute)()
	if l, err := s.TryLock("k2"); err != nil || l != nil {
		t.Errorf("TryLock on read-only store = (%v, %v), want declined", l, err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "owners")); len(entries) != 0 {
		t.Errorf("read-only store published an owner file: %v", entries)
	}
}
