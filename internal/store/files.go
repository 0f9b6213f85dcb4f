package store

import (
	"os"
	"sync"
)

// maxOpenSegments bounds the descriptors one handle keeps open to read
// its segments. It is a constant, not a setting: a store holds one
// segment per writing handle, so a sweep populated by one process or a
// small fleet reads a handful, and every one stays open. A store with
// more segments than this has piled up dead writers' logs, which cost
// one open per eviction rather than a descriptor each, so the handle's
// share of the process's descriptor limit stays fixed.
const maxOpenSegments = 64

// segFile is an open descriptor on a segment that operations use
// outside the lock of its holder: the read cache, or the append side
// for the handle's own segment. refs counts the holder's reference plus
// one per operation in flight and is guarded by the holder's lock. The
// descriptor closes with the last reference, so dropping it never
// fails a read or an fsync in flight.
type segFile struct {
	f    *os.File
	refs int
	used uint64 // the read cache's tick at the last acquire
}

// unref drops one reference and reports whether it was the last, which
// closes the descriptor. The close error is dropped: a read descriptor
// has nothing to flush, and every commit is fsynced before Put returns.
func (sf *segFile) unref() bool {
	sf.refs--
	if sf.refs > 0 {
		return false
	}
	sf.f.Close()
	return true
}

// segFiles is a handle's cache of read descriptors on its segments. A
// segment is opened on its first read and kept open, so a hit is one
// ReadAt. At most maxOpenSegments descriptors are open at once: opening
// another first closes the least recently used one that no read is
// using, or waits for a read to finish.
type segFiles struct {
	mu   sync.Mutex
	idle sync.Cond // broadcast when a read releases a descriptor
	open int       // open descriptors: cached ones, plus dropped ones still in use
	tick uint64
	byID map[int32]*segFile // by index into Store.segs
}

// acquire returns the read descriptor of segment seg at path, opening
// it on first use, with a reference the caller must release.
func (c *segFiles) acquire(seg int32, path string) (*segFile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if cf := c.byID[seg]; cf != nil {
			c.tick++
			cf.used = c.tick
			cf.refs++
			return cf, nil
		}
		if c.open < maxOpenSegments || c.evict() {
			break
		}
		c.idle.Wait()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c.tick++
	cf := &segFile{f: f, refs: 2, used: c.tick} // the cache's and the caller's
	c.byID[seg] = cf
	c.open++
	return cf, nil
}

// release returns a reference acquire handed out.
func (c *segFiles) release(cf *segFile) {
	c.mu.Lock()
	c.unref(cf)
	c.mu.Unlock()
}

// evict closes the least recently used cached descriptor that no read
// is using, and reports false when every one is in use. c.mu must be
// held.
func (c *segFiles) evict() bool {
	var lru *segFile
	var seg int32
	for id, cf := range c.byID {
		if cf.refs == 1 && (lru == nil || cf.used < lru.used) {
			lru, seg = cf, id
		}
	}
	if lru == nil {
		return false
	}
	delete(c.byID, seg)
	c.unref(lru)
	return true
}

// closeAll drops every cached descriptor; one a read is using closes
// when that read releases it.
func (c *segFiles) closeAll() {
	c.mu.Lock()
	for id, cf := range c.byID {
		delete(c.byID, id)
		c.unref(cf)
	}
	c.mu.Unlock()
}

// unref drops one reference to sf and wakes acquires waiting for a
// free slot. c.mu must be held.
func (c *segFiles) unref(sf *segFile) {
	if sf.unref() {
		c.open--
	}
	c.idle.Broadcast()
}
