package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// Cell leases are the worker plane's claim protocol: a worker that
// wants to simulate a cell acquires a lease file naming itself, renews
// it on a heartbeat interval while the simulation runs, and releases it
// after the atomic commit. Anyone finding a lease that is expired (the
// owner stopped heartbeating: wedged, or its host clock stopped) or
// whose owning process is gone (SIGKILL) breaks it, making the cell
// claimable again — "requeue" is nothing more than the lease ceasing to
// exist, so there is no queue state that can be lost or corrupted.
//
// Like cell locks, leases are advisory and protect work, not
// correctness: the commit protocol is atomic and idempotent and the
// simulator deterministic, so the worst a lost or doubly-claimed lease
// can cost is a duplicate simulation producing identical bytes. That is
// what makes SIGKILLing workers at arbitrary points safe.

// ErrLeaseLost reports that a renewal found the lease gone or owned by
// someone else: the holder looked dead (or expired) to another process,
// which broke the lease. The holder may finish its simulation — the
// idempotent commit stays safe — but must stop renewing.
var ErrLeaseLost = errors.New("store: lease lost (broken or taken over by another process)")

// leaseBody is the on-disk lease format.
type leaseBody struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Owner   string `json:"owner"` // worker name, for diagnostics
	Nonce   uint64 `json:"nonce"` // unique per acquisition: detects takeover
	procIdent
	ExpiresUnixNano int64 `json:"expires_unix_nano"`
}

func (b *leaseBody) expired(now time.Time) bool {
	return now.UnixNano() > b.ExpiresUnixNano
}

// CellLease is one held cell claim. Renew extends it; Release drops it.
type CellLease struct {
	s     *Store
	path  string
	key   string
	owner string
	nonce uint64
}

// Key returns the cache key the lease claims.
func (l *CellLease) Key() string { return l.key }

// LeaseInfo is the observable state of one lease, for supervision and
// health reporting.
type LeaseInfo struct {
	Key     string    `json:"key"`
	Owner   string    `json:"owner"`
	PID     int       `json:"pid"`
	Expires time.Time `json:"expires"`
	Expired bool      `json:"expired"`
}

// leaseNonce makes acquisition identities unique within and across
// processes: the PID disambiguates processes, the counter acquisitions.
var leaseCounter atomic.Uint64

func newLeaseNonce() uint64 {
	return uint64(os.Getpid())<<32 ^ leaseCounter.Add(1)
}

func (s *Store) leasePath(key string) string {
	return filepath.Join(s.dir, "leases", HashKey(key)+".lease")
}

// AcquireLease attempts to claim key for owner until now+ttl. It
// returns a non-nil lease when acquired and (nil, nil) when another
// live, unexpired holder has it — the caller moves on to other cells
// and retries later. A lease that is expired or whose owning process is
// gone is broken on sight and the claim retried.
func (s *Store) AcquireLease(key, owner string, ttl time.Duration) (*CellLease, error) {
	if s.readOnly {
		return nil, nil
	}
	if ttl <= 0 {
		return nil, errors.New("store: lease ttl must be positive")
	}
	path := s.leasePath(key)
	for attempt := 0; attempt < 2; attempt++ {
		nonce := newLeaseNonce()
		body, _ := json.Marshal(&leaseBody{
			Version: Version, Key: key, Owner: owner, Nonce: nonce,
			procIdent: selfIdent(), ExpiresUnixNano: time.Now().Add(ttl).UnixNano(),
		})
		err := publishNew(path, body)
		switch {
		case err == nil:
			s.count(func(st *Stats) { st.LeasesAcquired++ })
			return &CellLease{s: s, path: path, key: key, owner: owner, nonce: nonce}, nil
		case IsTransient(err):
			return nil, err
		case !errors.Is(err, os.ErrExist):
			// Lease dir unwritable etc: degrade to leaseless operation.
			return nil, nil
		}
		if !s.breakLeaseIfStale(path) {
			return nil, nil // a live, unexpired holder has it
		}
	}
	return nil, nil
}

// publishNew creates path holding body, failing with an os.ErrExist
// error if path already exists and a transient one if the body could
// not be written. The body goes to a temp file first and is published
// with a hard link, which is atomic and refuses an existing target, so
// a rival claimant never reads a lease without its content (and breaks
// it as torn).
func publishNew(path string, body []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	_, err = f.Write(body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Transient(err)
	}
	return os.Link(tmp, path)
}

// breakLeaseIfStale removes path when its lease is unreadable garbage
// (torn write), expired, or owned by a process that no longer exists.
// Returns true when the lease was removed and the cell is claimable.
func (s *Store) breakLeaseIfStale(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return true // raced with the holder's own Release
		}
		return false
	}
	var body leaseBody
	why := ""
	switch {
	case json.Unmarshal(data, &body) != nil:
		why = "unreadable lease (torn write)"
	case body.expired(time.Now()):
		why = "lease expired (owner stopped heartbeating)"
	case !body.alive():
		why = "owner process is gone"
	default:
		return false
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false
	}
	s.count(func(st *Stats) { st.StaleLeasesBroken++ })
	s.logf("store: broke lease %s held by %s (pid %d): %s; cell requeued",
		filepath.Base(path), body.Owner, body.PID, why)
	return true
}

// Renew extends the lease to now+ttl — the worker heartbeat. It fails
// with ErrLeaseLost when the lease was broken or taken over: the caller
// should stop renewing (finishing the in-flight simulation is still
// safe; the commit is idempotent).
func (l *CellLease) Renew(ttl time.Duration) error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return ErrLeaseLost
	}
	var body leaseBody
	if err := json.Unmarshal(data, &body); err != nil || body.Nonce != l.nonce {
		return ErrLeaseLost
	}
	body.ExpiresUnixNano = time.Now().Add(ttl).UnixNano()
	out, _ := json.Marshal(&body)
	if err := atomicWrite(l.path, out); err != nil {
		return Transient(err)
	}
	return nil
}

// Release drops the lease. Only this acquisition's own lease is ever
// removed: after a takeover the file belongs to the new holder and is
// left alone.
func (l *CellLease) Release() {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return
	}
	var body leaseBody
	if err := json.Unmarshal(data, &body); err == nil && body.Nonce != l.nonce {
		return
	}
	_ = os.Remove(l.path)
}

// Leases lists every lease file's state, for supervision and health
// endpoints. Unreadable entries are skipped (the next BreakExpiredLeases
// or Acquire sweep repairs them).
func (s *Store) Leases() []LeaseInfo {
	var out []LeaseInfo
	now := time.Now()
	entries, err := os.ReadDir(filepath.Join(s.dir, "leases"))
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lease") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "leases", e.Name()))
		if err != nil {
			continue
		}
		var body leaseBody
		if err := json.Unmarshal(data, &body); err != nil {
			continue
		}
		out = append(out, LeaseInfo{
			Key: body.Key, Owner: body.Owner, PID: body.PID,
			Expires: time.Unix(0, body.ExpiresUnixNano),
			Expired: body.expired(now),
		})
	}
	return out
}

// BreakExpiredLeases sweeps every stale lease (expired, dead owner, or
// torn) and returns how many were broken — the coordinator's dead-worker
// detection pass. Workers breaking stale leases lazily on Acquire makes
// this optional for progress; running it keeps requeue latency bounded
// by the supervision interval instead of the next claim attempt.
func (s *Store) BreakExpiredLeases() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, "leases"))
	if err != nil {
		return 0
	}
	broken := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lease") {
			continue
		}
		path := filepath.Join(s.dir, "leases", e.Name())
		// Only remove stale entries; breakLeaseIfStale re-reads and
		// re-checks, so a live lease is never touched.
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			continue
		}
		var body leaseBody
		if json.Unmarshal(data, &body) == nil && !body.expired(time.Now()) && body.alive() {
			continue
		}
		if s.breakLeaseIfStale(path) {
			broken++
		}
	}
	return broken
}
