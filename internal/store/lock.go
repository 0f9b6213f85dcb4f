package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Lock is one held per-cell lock file. Unlock releases it; releasing a
// lock another process already broke (because this process looked dead
// to it) is harmless — Unlock only ever removes this lock's own path.
type Lock struct {
	path string
}

// lockBody is the content of owner files, and so of the lock files
// linked to them: enough to decide staleness. The embedded identity is
// a (PID, start-time) pair, not a bare PID — see procIdent for why PID
// reuse would otherwise keep dead locks alive.
type lockBody struct {
	procIdent
}

// TryLock attempts to acquire the advisory per-cell writer lock for
// key by hard-linking this process's owner file to the cell's lock
// path. It returns a non-nil Lock when acquired, and (nil, nil) when a
// live process holds it — the caller then simulates the cell itself and
// relies on the idempotent commit. A lock file whose owner is gone —
// the PID is dead, or the PID is alive but its start time shows it is
// an unrelated process that recycled the number — is stale (its owner
// was killed mid-cell) and is broken on sight.
func (s *Store) TryLock(key string) (*Lock, error) {
	if s.readOnly {
		return nil, nil
	}
	owner, err := s.owner()
	if err != nil {
		if IsTransient(err) {
			return nil, err
		}
		// Owners dir unwritable etc: degrade to lockless operation.
		return nil, nil
	}
	path := filepath.Join(s.dir, "locks", HashKey(key)+".lock")
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(owner, path)
		if err == nil {
			return &Lock{path: path}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			// Lock dir unwritable, no hard links, etc: degrade to lockless
			// operation.
			return nil, nil
		}
		if !s.breakIfStale(path) {
			return nil, nil // a live process holds it
		}
	}
	return nil, nil
}

// publishOwner writes this process's owner file, which every lock it
// takes links to, and returns its path. Several handles in one process
// share the file: its name and content are the process's identity.
func (s *Store) publishOwner() (string, error) {
	self := selfIdent()
	path := filepath.Join(s.dir, "owners", fmt.Sprintf("%d-%d.owner", self.PID, self.Start))
	body, _ := json.Marshal(lockBody{procIdent: self})
	if err := publishNew(path, body); err != nil && !errors.Is(err, os.ErrExist) {
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

// breakIfStale removes path when its owning process is gone (or the
// file is unreadable garbage, e.g. a torn write from a kill between
// create and write). Returns true when the lock was removed and the
// caller may retry acquisition.
func (s *Store) breakIfStale(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return true // raced with the holder's own Unlock
		}
		return false
	}
	var body lockBody
	if err := json.Unmarshal(data, &body); err == nil && body.alive() {
		return false
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false
	}
	s.count(func(st *Stats) { st.StaleLocksBroken++ })
	s.logf("store: broke stale lock %s (owner is gone)", filepath.Base(path))
	return true
}

// Unlock releases the lock. Safe to call once per acquired lock.
func (l *Lock) Unlock() {
	_ = os.Remove(l.path)
}
