// Package store is the content-addressed, crash-safe on-disk cell
// result store behind `sdsp-exp -store` / `sdsp-report -store`: a log
// of checksummed JSON records, one per completed experiment cell, keyed
// by the experiment runner's cell ID, which is derived from the cell's
// complete machine configuration (fault spec, predictor, fetch policy,
// ...), its programs and the model digest. Repeated sweeps — and
// concurrent sweeps from several processes — share cells instead of
// re-simulating them, while the runner's byte-identical `-j` output
// contract is preserved: a warm cell deserializes to the same Stats
// the fresh simulation produced.
//
// Layout:
//
//	VERSION                           layout marker
//	segments/<pid>-<start>-<nonce>.seg  one append-only record log per writing handle
//	owners/<pid>-<start>.owner        one identity file per claiming process
//	locks/<sha256>.lock               a cell claim: a hard link to the holder's owner file
//	quarantine/<sha256>.json          deterministic-failure verdicts
//
// Crash-safety contract:
//
//   - A cell is committed by appending one framed record (segment.go)
//     to the handle's own segment with a single write, then fsyncing
//     the segment; the segment's directory entry is fsynced once, when
//     the handle creates it. Put returns only after both are durable.
//     Records are never rewritten, so a killed writer leaves at most
//     one record cut short at its segment's end, which every reader
//     skips: that cell was in flight and is recomputed. Every committed
//     cell survives and is never re-simulated (enforced by
//     internal/store/chaostest).
//   - Every record carries its key in the frame and, in its envelope,
//     the key again and a SHA-256 checksum of the payload. A record is
//     served only when its bytes are exactly what Put writes: the
//     envelope's fixed layout (envelope.go) around a payload that
//     decodes as the compact JSON json.Marshal writes for core.Stats
//     (decode.go). A damaged, truncated, mis-keyed, wrong-version or
//     re-encoded record is treated as a miss: it is dropped from the
//     index (a "repair"), a diagnostic is logged, and the cell is simply
//     recomputed and appended again — corruption can cost time, never
//     correctness. A later record for a key supersedes an earlier one.
//   - Each handle indexes every segment at Open. A lookup that misses
//     first reads what other writers appended since: one directory
//     read, then a stat of each segment whose writer was alive when
//     last checked. A dead writer's segment is read once and sealed.
//   - Writers need no coordination: the simulator is deterministic, so
//     racing writers append identical records. Sweeps take no claim;
//     sdsp-serve workers claim cells through lock files (lock.go) so
//     that a fleet does not duplicate work, and Open removes the owner
//     files of dead processes.
//
// A handle's lifecycle, from Open to Close:
//
//   - Open checks the layout version, removes dead owners' files and
//     indexes every segment. Each segment it reads stays open: the
//     handle keeps up to maxOpenSegments read descriptors (files.go),
//     evicting the least recently used one past that, so a hit is one
//     ReadAt on a descriptor already held, and a segment evicted or
//     never opened costs one open on its next read.
//   - Get, CellByHash and the index refresh all read through those
//     descriptors. A read holds a reference on its descriptor, so
//     eviction or Close never fails it.
//   - The first Put creates the handle's own segment and keeps it open
//     for appending.
//   - Close releases every descriptor. A handle dropped without Close
//     releases them when it is collected: nothing outside the handle
//     refers to it.
//
// The store only holds successful, golden-validated results plus the
// quarantine list (cells that failed deterministically, see
// QuarantineEntry); transient failures are never persisted. This
// directory is the substrate the `sdsp-serve` sweep daemon mounts.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Version is bumped whenever the on-disk layout changes incompatibly.
// v2: coverage-carrying cells persist (cover.Set gained a JSON
// round-trip); a v1 binary would silently decode their event counters
// as empty, so the layouts must not mix.
// v3: cells are records in per-writer segment logs instead of one file
// each, and locks are hard links to per-process owner files.
const Version = 3

// versionFile marks a directory as an sdsp cell store.
const versionFile = "VERSION"

// versionMagic is the exact content of the version marker.
var versionMagic = fmt.Sprintf("sdsp-store v%d\n", Version)

// Stats counts the store's traffic and degradations. All counters are
// deterministic for a deterministic workload (lookups happen once per
// deduplicated cell, independent of worker count), which is what makes
// the j1-vs-j8 counter identity testable.
type Stats struct {
	Hits             uint64 `json:"hits"`               // cells served from disk
	Misses           uint64 `json:"misses"`             // lookups that found no usable cell
	Repairs          uint64 `json:"repairs"`            // corrupt/torn/mis-keyed records dropped (each also a miss)
	Commits          uint64 `json:"commits"`            // cells durably written
	PutFailures      uint64 `json:"put_failures"`       // commit attempts that failed (e.g. read-only dir)
	StaleLocksBroken uint64 `json:"stale_locks_broken"` // stale cell claims broken (cells requeued)
}

// Store is one handle on an on-disk cell store. Safe for concurrent use
// by multiple goroutines and, through its own segment, by multiple
// handles and processes.
type Store struct {
	dir string
	// logf receives one line per degradation (repair, stale claim break,
	// failed commit). Never nil after Open.
	logf func(format string, args ...any)
	// readOnly marks a store whose directory rejects writes: reads keep
	// working, commits and repairs degrade to logged no-ops.
	readOnly bool
	// owner publishes this process's owner file on first use and
	// returns its path.
	owner func() (string, error)
	// lease is the claim horizon Heartbeat declared, in nanoseconds,
	// written into the owner file when it is published.
	lease atomic.Int64

	mu    sync.Mutex
	st    Stats
	index map[[sha256.Size]byte]loc // latest record read for each key hash
	segs  []segment
	known map[string]bool // names of segs
	scan  *bufio.Reader   // fixed-size buffer segments are scanned through
	key   []byte          // scratch key for scans

	// files holds the descriptors segments are read through.
	files segFiles

	// wmu guards the append side: this handle's own segment.
	wmu     sync.Mutex
	out     *segFile // nil until the first Put, after the segment is abandoned, and after Close
	outSeg  int32
	outSize int64
}

// loc locates one record: its segment (an index into Store.segs) and
// its frame's offset and length.
type loc struct {
	seg int32
	n   uint32
	off int64
}

// segment is what a handle knows of one segment.
type segment struct {
	path string
	size int64 // bytes read into the index: complete frames
	seen int64 // file size at the last read, -1 before the first
	// sealed segments are never read again: their writer was dead when
	// first seen, they are damaged, or they are this handle's own.
	sealed bool
}

// QuarantineEntry records one cell that failed deterministically (two
// consecutive machine errors): sweeps that see it render an explicit
// QUARANTINED table entry instead of re-simulating a known-poisoned
// cell or silently dropping it.
type QuarantineEntry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Label   string `json:"label"`
	Reason  string `json:"reason"`
	Bundle  string `json:"bundle,omitempty"` // crash-report bundle dir, when one was written
}

// HashKey returns the content address of a cache key: the SHA-256 hex
// of the key string. Exposed so tests and tools can map keys to files.
func HashKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Open opens (creating if needed) the store at dir and indexes its
// segments. The parent of dir must already exist — a mistyped path
// should fail loudly, not silently build a directory tree. A dir that
// exists but rejects writes degrades to a read-only store rather than
// failing the sweep.
func Open(dir string, logf func(format string, args ...any)) (*Store, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir = filepath.Clean(dir)
	parent := filepath.Dir(dir)
	if fi, err := os.Stat(parent); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("store: parent directory %s does not exist", parent)
	}
	s := &Store{dir: dir, logf: logf,
		index: map[[sha256.Size]byte]loc{}, known: map[string]bool{}}
	s.files.byID = map[int32]*segFile{}
	s.files.idle.L = &s.files.mu
	s.owner = sync.OnceValues(s.publishOwner)
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	s.removeDeadOwners()
	s.mu.Lock()
	notes, _ := s.refresh()
	s.mu.Unlock()
	s.note(notes)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store degraded to read-only at Open (or
// was forced there).
func (s *Store) ReadOnly() bool { return s.readOnly }

// ForceReadOnly degrades the store to read-only mode: reads keep
// working, commits and claims refuse with diagnostics. It
// exists for operators and tests that need the degradation path without
// depending on file modes (which root ignores); a store never upgrades
// back — reopen it instead. Like Open, it must be called from a single
// goroutine with no store operation in flight.
func (s *Store) ForceReadOnly() {
	s.readOnly = true
	s.logf("store: %s forced read-only; cells are served but nothing new will persist", s.dir)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// checkVersion verifies the version marker, or creates the layout and
// writes the marker in a new store. A marker from a different layout
// version refuses to open, before anything is created — silently mixing
// layouts could serve wrong cells.
func (s *Store) checkVersion() error {
	path := filepath.Join(s.dir, versionFile)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(data) != versionMagic {
			return fmt.Errorf("store: %s holds layout %q, this build reads %q", s.dir,
				strings.TrimSpace(string(data)), strings.TrimSpace(versionMagic))
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("store: %w", err)
	}
	for _, sub := range []string{"segments", "owners", "locks", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(s.dir, sub), 0o755); err != nil {
			s.readOnly = true
		}
	}
	if data != nil {
		return nil
	}
	if werr := AtomicWrite(path, []byte(versionMagic)); werr != nil {
		// Cannot mark the store: degrade to read-only (satisfied by an
		// empty store) rather than failing the sweep.
		s.readOnly = true
		s.logf("store: %s is not writable (%v); continuing without persistence", s.dir, werr)
	}
	return nil
}

func (s *Store) quarantinePath(key string) string {
	return filepath.Join(s.dir, "quarantine", HashKey(key)+".json")
}

// refresh indexes the records appended since the last look: segments
// new since then, in log order, and the tails of segments whose writer
// was alive when first seen. It costs one directory read plus a stat
// of each such live segment. It returns a diagnostic per segment found
// damaged, to be logged once s.mu is released. s.mu must be held.
func (s *Store) refresh() (notes []string, err error) {
	names, err := newSegments(s.dir, s.known)
	for i := range s.segs {
		if !s.segs[i].sealed {
			notes = s.readTail(int32(i), notes)
		}
	}
	for _, name := range names {
		writer, _, _ := parseSegmentName(name)
		s.known[name] = true
		// Liveness is checked before the read: a writer dead now appended
		// everything it ever will, so one read covers the segment.
		s.segs = append(s.segs, segment{path: filepath.Join(s.dir, "segments", name),
			seen: -1, sealed: !writer.alive()})
		notes = s.readTail(int32(len(s.segs)-1), notes)
	}
	return notes, err
}

// readTail indexes the complete records segment i gained since it was
// last read, appending a diagnostic to notes if the segment turns out
// damaged. s.mu must be held.
func (s *Store) readTail(i int32, notes []string) []string {
	seg := &s.segs[i]
	fi, err := os.Stat(seg.path)
	if err != nil || fi.Size() == seg.seen {
		return notes
	}
	seg.seen = fi.Size()
	cf, err := s.files.acquire(i, seg.path)
	if err != nil {
		return notes
	}
	defer s.files.release(cf)
	tail := io.NewSectionReader(cf.f, seg.size, seg.seen-seg.size)
	if s.scan == nil {
		s.scan = bufio.NewReaderSize(tail, scanBuffer)
	} else {
		s.scan.Reset(tail)
	}
	end, damaged := scanFrames(s.scan, seg.size, &s.key, func(key []byte, off int64, n uint32) {
		s.index[sha256.Sum256(key)] = loc{seg: i, n: n, off: off}
	})
	seg.size = end
	if damaged {
		seg.sealed = true
		notes = append(notes, fmt.Sprintf("store: segment %s is damaged at offset %d; its later records are ignored (their cells will be recomputed)",
			filepath.Base(seg.path), end))
	}
	return notes
}

// note logs the diagnostics refresh returned.
func (s *Store) note(notes []string) {
	for _, n := range notes {
		s.logf("%s", n)
	}
}

// locate returns the record indexed for key hash h and its segment's
// path, first reading what the segments gained when h is not indexed.
func (s *Store) locate(h [sha256.Size]byte) (path string, l loc, ok bool) {
	var notes []string
	s.mu.Lock()
	if l, ok = s.index[h]; !ok {
		notes, _ = s.refresh()
		l, ok = s.index[h]
	}
	if ok {
		path = s.segs[l.seg].path
	}
	s.mu.Unlock()
	s.note(notes)
	return path, l, ok
}

// Committed reports whether a committed record exists for key, without
// touching the hit/miss counters or verifying the contents: the serve
// plane's test for work left to claim.
func (s *Store) Committed(key string) bool {
	_, _, ok := s.locate(sha256.Sum256([]byte(key)))
	return ok
}

// Get loads the committed result for key, or reports a miss. A record
// that is not exactly what Put writes for key — torn write, flipped
// bit, truncated JSON, a record whose key does not match (hash
// collision or manual tampering), even a re-encoding that is still
// valid JSON — is repaired (record dropped, diagnostic logged) and
// reported as a miss: the caller recomputes the cell, and the table is
// still right.
func (s *Store) Get(key string) (*core.Stats, bool) {
	h := sha256.Sum256([]byte(key))
	path, l, ok := s.locate(h)
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	fkey, body, err := s.readRecord(path, l)
	if err != nil {
		return s.reject(h, path, l, err.Error())
	}
	if string(fkey) != key {
		return s.reject(h, path, l, "record names another key")
	}
	payload, err := openEnvelope(body, key)
	if err != nil {
		return s.reject(h, path, l, err.Error())
	}
	stats, err := decodeStats(payload)
	if err != nil {
		return s.reject(h, path, l, fmt.Sprintf("payload does not decode: %v", err))
	}
	s.count(func(st *Stats) { st.Hits++ })
	return stats, true
}

// readRecord reads the record at l of the segment at path through the
// handle's kept-open descriptor and returns its key and body.
func (s *Store) readRecord(path string, l loc) (key, body []byte, err error) {
	cf, err := s.files.acquire(l.seg, path)
	if err != nil {
		return nil, nil, err
	}
	key, body, err = readFrame(cf.f, l.off, l.n)
	s.files.release(cf)
	return key, body, err
}

// reject repairs a record that failed verification and counts the miss.
// The record is dropped from the index, so the recomputed cell's record
// supersedes it; if it lies in this handle's own segment, the segment
// is abandoned and the next Put starts a new one, since appending
// behind damage could hide the new record from readers.
func (s *Store) reject(h [sha256.Size]byte, path string, l loc, why string) (*core.Stats, bool) {
	s.mu.Lock()
	if s.index[h] == l {
		delete(s.index, h)
	}
	s.st.Repairs++
	s.st.Misses++
	s.mu.Unlock()
	s.wmu.Lock()
	if s.out != nil && s.outSeg == l.seg {
		s.dropOut()
	}
	s.wmu.Unlock()
	s.logf("store: repaired %s: record at %s offset %d: %s (cell will be recomputed)",
		hex.EncodeToString(h[:6]), filepath.Base(path), l.off, why)
	return nil, false
}

// Put durably commits a successful cell result: one record appended to
// this handle's segment with a single write, then an fsync. A killed
// writer leaves at most that record cut short, which readers skip.
// Errors are reported but are expected to be tolerated by the caller:
// a failed commit only costs a future recomputation.
func (s *Store) Put(key string, stats *core.Stats) error {
	if s.readOnly {
		return s.putFailed(key, errors.New("store is read-only"))
	}
	payload, err := json.Marshal(stats)
	if err != nil {
		return s.putFailed(key, err)
	}
	body := sealEnvelope(nil, key, payload)
	l, err := s.append(appendFrame(make([]byte, 0, frameHeader+len(key)+len(body)), key, body))
	if err != nil {
		return s.putFailed(key, err)
	}
	h := sha256.Sum256([]byte(key))
	s.mu.Lock()
	// A concurrent Put of the same key may have indexed a later record
	// of this segment first.
	if cur, ok := s.index[h]; !ok || cur.seg != l.seg || cur.off < l.off {
		s.index[h] = l
	}
	s.st.Commits++
	s.mu.Unlock()
	return nil
}

// append writes frame at the end of this handle's segment, creating the
// segment on first use, and returns once the record is durable. After a
// failed write or fsync the segment is abandoned.
func (s *Store) append(frame []byte) (loc, error) {
	s.wmu.Lock()
	if s.out == nil {
		if err := s.createSegment(); err != nil {
			s.wmu.Unlock()
			return loc{}, err
		}
	}
	out, l := s.out, loc{seg: s.outSeg, n: uint32(len(frame)), off: s.outSize}
	out.refs++ // held across the fsync, which runs outside s.wmu
	_, err := out.f.WriteAt(frame, l.off)
	if err == nil {
		s.outSize += int64(len(frame))
	}
	s.wmu.Unlock()
	if err == nil {
		err = out.f.Sync()
	}
	s.wmu.Lock()
	if err != nil && s.out == out {
		s.dropOut()
	}
	out.unref()
	s.wmu.Unlock()
	if err != nil {
		return loc{}, err
	}
	return l, nil
}

// dropOut abandons this handle's segment: the next Put starts a new
// one. s.wmu must be held.
func (s *Store) dropOut() {
	s.out.unref()
	s.out = nil
}

// Close releases every descriptor the handle holds: the segments it
// keeps open for reading and the segment it appends to. A read or
// commit in flight keeps its descriptor until it finishes. The handle
// stays usable: a later read reopens what it needs and a later Put
// starts a new segment, so Close again after such use. A handle dropped
// without Close releases its descriptors when it is collected.
func (s *Store) Close() {
	s.files.closeAll()
	s.wmu.Lock()
	if s.out != nil {
		s.dropOut()
	}
	s.wmu.Unlock()
}

// createSegment creates this handle's segment and makes its directory
// entry durable. s.wmu must be held.
func (s *Store) createSegment() error {
	dir := filepath.Join(s.dir, "segments")
	self := selfIdent()
	for stamp := uint64(time.Now().UnixNano()); ; stamp++ {
		name := segmentName(self, stamp)
		path := filepath.Join(dir, name)
		// Registered under s.mu with the creation, so a concurrent
		// refresh never mistakes the new segment for a foreign one.
		s.mu.Lock()
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			s.known[name] = true
			s.segs = append(s.segs, segment{path: path, sealed: true})
			s.outSeg = int32(len(s.segs) - 1)
		}
		s.mu.Unlock()
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return err
		}
		s.out, s.outSize = &segFile{f: f, refs: 1}, 0
		return nil
	}
}

func (s *Store) putFailed(key string, err error) error {
	s.count(func(st *Stats) { st.PutFailures++ })
	err = fmt.Errorf("store: commit %s: %w", HashKey(key)[:12], err)
	s.logf("%v (cell will be recomputed next run)", err)
	return Transient(err)
}

// Quarantine durably records a deterministically failing cell.
func (s *Store) Quarantine(e QuarantineEntry) error {
	if s.readOnly {
		return s.putFailed(e.Key, errors.New("store is read-only"))
	}
	e.Version = Version
	data, err := json.Marshal(&e)
	if err != nil {
		return s.putFailed(e.Key, err)
	}
	if err := AtomicWrite(s.quarantinePath(e.Key), data); err != nil {
		return s.putFailed(e.Key, err)
	}
	return nil
}

// Quarantined reports whether key is on the quarantine list. Corrupt
// entries are repaired to a miss, like cells.
func (s *Store) Quarantined(key string) (QuarantineEntry, bool) {
	path := s.quarantinePath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.repairFile(path, fmt.Sprintf("unreadable quarantine entry: %v", err))
		}
		return QuarantineEntry{}, false
	}
	var e QuarantineEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != Version || e.Key != key {
		s.repairFile(path, "quarantine entry failed verification")
		return QuarantineEntry{}, false
	}
	return e, true
}

// CellHashes lists, sorted, the content addresses of every committed
// cell, including those other handles appended since the last look —
// the chaos harness's ground truth for "what survived the kill".
func (s *Store) CellHashes() ([]string, error) {
	s.mu.Lock()
	notes, err := s.refresh()
	hashes := make([]string, 0, len(s.index))
	for h := range s.index {
		hashes = append(hashes, hex.EncodeToString(h[:]))
	}
	s.mu.Unlock()
	s.note(notes)
	slices.Sort(hashes)
	return hashes, err
}

// CellByHash returns the committed envelope bytes for one content
// address, verbatim — the cache-sharing primitive: envelopes are
// self-verifying (embedded key + payload checksum), so a receiver can
// verify them itself. The hash must be a full lowercase SHA-256 hex
// string; anything else (notably path-escaping garbage from a URL) is
// rejected before touching the filesystem.
func (s *Store) CellByHash(hash string) ([]byte, error) {
	var h [sha256.Size]byte
	if len(hash) != 2*sha256.Size || strings.ToLower(hash) != hash {
		return nil, fmt.Errorf("store: malformed cell hash %q", hash)
	}
	if _, err := hex.Decode(h[:], []byte(hash)); err != nil {
		return nil, fmt.Errorf("store: malformed cell hash %q", hash)
	}
	path, l, ok := s.locate(h)
	if !ok {
		return nil, fmt.Errorf("store: cell %s: %w", hash, os.ErrNotExist)
	}
	key, body, err := s.readRecord(path, l)
	if err != nil {
		return nil, fmt.Errorf("store: cell %s: %w", hash, err)
	}
	if sha256.Sum256(key) != h {
		return nil, fmt.Errorf("store: cell %s: record names another key", hash)
	}
	return body, nil
}

// repairFile removes a quarantine entry that failed verification and
// logs why. On a read-only store the removal fails silently — the file
// will fail verification again next run, which is still only a miss.
func (s *Store) repairFile(path, why string) {
	_ = os.Remove(path)
	s.count(func(st *Stats) { st.Repairs++ })
	s.logf("store: repaired %s: %s (cell will be recomputed)", filepath.Base(path), why)
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.st)
	s.mu.Unlock()
}

// AtomicWrite commits data to path via temp file + fsync + rename +
// fsync of the directory: the file is either fully present with
// exactly these bytes, or absent, and once it returns the name
// survives power loss. A writer killed before the rename leaves an
// inert "<name>.tmp*" file beside path, which nothing removes: no
// reader can tell it from a live writer's temp file.
func AtomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs directory dir, making the names created in or renamed
// into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// transientError marks failures that merit a bounded retry (store I/O)
// as opposed to deterministic simulation failures.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient wraps err as retryable. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err (anywhere in its chain) is marked
// retryable.
func IsTransient(err error) bool {
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}
