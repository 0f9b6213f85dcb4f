package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Cell claims are the worker plane's one claim protocol. A process
// claims a cell by hard-linking its owner file to the cell's lock path,
// and releases it by removing the link. A claim is stale, and anyone
// may break it, once its owner process is gone or, when the owner
// declared a lease, once the owner file has not been touched for that
// long. Every claim is a link to its owner file, so one touch of that
// file (Heartbeat) renews all of a process's claims.
//
// Claims are advisory and protect work, not correctness: the commit is
// atomic and idempotent and the simulator deterministic, so the worst a
// broken or doubly-taken claim can cost is a duplicate simulation
// producing identical bytes. That is what makes SIGKILLing workers at
// arbitrary points safe. Breaking a claim is the whole of "requeue":
// there is no queue state that can be lost or corrupted.

// Lock is one held cell claim.
type Lock struct {
	path  string
	owner string // the owner file path links to while the claim is this process's
}

// lockBody is the content of owner files, and so of the lock files
// linked to them: enough to decide staleness. The embedded identity is
// a (PID, start-time) pair, not a bare PID — see procIdent for why PID
// reuse would otherwise keep dead locks alive.
type lockBody struct {
	procIdent
	// Lease is the horizon the owner declared for its claims: they are
	// stale once the owner file's mtime is older. Zero means they never
	// expire while the owner lives.
	Lease time.Duration `json:"lease_ns,omitempty"`
}

// heartbeatsPerLease is how often within one lease Heartbeat touches
// the owner file, so a claim outlives five missed beats.
const heartbeatsPerLease = 6

// TryLock attempts to claim the cell key by hard-linking this process's
// owner file to the cell's lock path. It returns a non-nil Lock when
// acquired, and (nil, nil) when a live process holds the claim or the
// store is read-only. A stale claim is broken on sight and the claim
// retried.
func (s *Store) TryLock(key string) (*Lock, error) {
	if s.readOnly {
		return nil, nil
	}
	owner, err := s.owner()
	if err != nil {
		if IsTransient(err) {
			return nil, err
		}
		// Owners dir unwritable etc: degrade to claimless operation.
		return nil, nil
	}
	path := filepath.Join(s.dir, "locks", HashKey(key)+".lock")
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(owner, path)
		if err == nil {
			return &Lock{path: path, owner: owner}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			// Lock dir unwritable, no hard links, etc: degrade to
			// claimless operation.
			return nil, nil
		}
		if !s.breakIfStale(path) {
			return nil, nil // a live process holds it
		}
	}
	return nil, nil
}

// Unlock releases the claim if it is still this process's: a claim
// broken as stale and retaken by another process is left to its new
// holder.
func (l *Lock) Unlock() {
	held, err := os.Stat(l.path)
	if err != nil {
		return
	}
	if own, err := os.Stat(l.owner); err == nil && os.SameFile(held, own) {
		_ = os.Remove(l.path)
	}
}

// Heartbeat declares lease as the horizon of this process's claims and
// keeps them alive until stop is called: it touches the owner file now
// and then every lease/6, but never more often than once a millisecond
// (time.NewTicker panics on a zero period). stop returns once the
// heartbeat has ended. An owner file is written once, so call
// Heartbeat before the process's first claim; a process that claimed
// first keeps claims that never expire while it lives. On a read-only
// store, or with a lease that is not positive, there is nothing to
// keep alive and stop is a no-op.
func (s *Store) Heartbeat(lease time.Duration) (stop func()) {
	if s.readOnly || lease <= 0 {
		return func() {}
	}
	s.lease.Store(int64(lease))
	owner, err := s.owner()
	if err != nil {
		return func() {}
	}
	// A failed touch needs no handling: the claims age, and once past
	// their lease they are broken and their cells recomputed, which the
	// idempotent commit makes safe.
	touch := func() { now := time.Now(); _ = os.Chtimes(owner, now, now) }
	touch()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(max(lease/heartbeatsPerLease, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				touch()
			}
		}
	}()
	return sync.OnceFunc(func() { close(done); <-exited })
}

// publishOwner writes this process's owner file, which every claim it
// takes links to, and returns its path. Several handles in one process
// share the file: its name and content are the process's identity and
// the lease the first of them declared. The body goes to a temp file
// first and is published with a hard link, which is atomic and refuses
// an existing target, so a claim never links to an owner file without
// its content.
func (s *Store) publishOwner() (string, error) {
	self := selfIdent()
	dir := filepath.Join(s.dir, "owners")
	path := filepath.Join(dir, fmt.Sprintf("%d-%d.owner", self.PID, self.Start))
	body, _ := json.Marshal(lockBody{procIdent: self, Lease: time.Duration(s.lease.Load())})
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", Transient(err)
	}
	if err := os.Link(f.Name(), path); err != nil && !errors.Is(err, os.ErrExist) {
		return "", err
	}
	return path, nil
}

// removeDeadOwners deletes the owner files of processes that no longer
// exist, and any temp file a killed publisher left. The process is
// named by the file name, so a file being published is never read. A
// dead owner's lock links outlive it and are broken as stale.
func (s *Store) removeDeadOwners() {
	dir := filepath.Join(s.dir, "owners")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		prefix, _, _ := strings.Cut(e.Name(), ".")
		if owner, ok := parseIdent(prefix); ok && !owner.alive() {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// claimState reads the claim at path through one descriptor, so its
// body and mtime are the same file's, and returns its owner and, when
// the claim is stale, why. An error means the claim could not be read:
// os.ErrNotExist once its holder released it.
func claimState(path string) (owner procIdent, why string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return procIdent{}, "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return procIdent{}, "", err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return procIdent{}, "", err
	}
	var body lockBody
	switch {
	case json.Unmarshal(data, &body) != nil:
		why = "unreadable (torn write)"
	case !body.alive():
		why = "owner is gone"
	case body.Lease > 0 && time.Since(fi.ModTime()) > body.Lease:
		why = fmt.Sprintf("owner silent past its %v lease", body.Lease)
	}
	return body.procIdent, why, nil
}

// breakIfStale removes the claim at path when it is stale. It returns
// true when the claim is gone, broken here or released by its holder
// meanwhile, and the caller may retry acquisition.
func (s *Store) breakIfStale(path string) bool {
	owner, why, err := claimState(path)
	if err != nil {
		return errors.Is(err, os.ErrNotExist)
	}
	if why == "" {
		return false
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false
	}
	s.count(func(st *Stats) { st.StaleLocksBroken++ })
	s.logf("store: broke stale claim %s of pid %d (%s); its cell is claimable again",
		filepath.Base(path), owner.PID, why)
	return true
}

// claimFiles lists the lock files under locks/ by the content address
// (HashKey) of the cell each claims.
func (s *Store) claimFiles() map[string]string {
	dir := filepath.Join(s.dir, "locks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		if hash, ok := strings.CutSuffix(e.Name(), ".lock"); ok {
			files[hash] = filepath.Join(dir, e.Name())
		}
	}
	return files
}

// Claims maps the content address (HashKey) of every cell under a live
// claim to its holder, named "<pid>-<start>" like its owner file.
// Stale claims are left out.
func (s *Store) Claims() map[string]string {
	claims := map[string]string{}
	for hash, path := range s.claimFiles() {
		if owner, why, err := claimState(path); err == nil && why == "" {
			claims[hash] = fmt.Sprintf("%d-%d", owner.PID, owner.Start)
		}
	}
	return claims
}

// BreakStaleClaims breaks every stale claim, logging each: the
// coordinator's pass that requeues the cells of dead or silent
// workers. Claim attempts break stale claims on sight too, so the pass
// only bounds requeue latency by its own period.
func (s *Store) BreakStaleClaims() {
	for _, path := range s.claimFiles() {
		s.breakIfStale(path)
	}
}
