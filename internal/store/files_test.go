package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// storeFDs counts this process's descriptors open on files under dir.
// ok is false where /proc/self/fd cannot be listed.
func storeFDs(dir string) (n int, ok bool) {
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	for _, fd := range fds {
		// A descriptor closed since the listing fails to resolve.
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n, true
}

func requireProcFDs(t *testing.T) {
	t.Helper()
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("/proc/self/fd is not available")
	}
}

// TestCloseReleasesEveryDescriptor: a handle keeps one read descriptor
// per segment it read and one on the segment it appends to; Close
// releases them all, and the handle stays usable.
func TestCloseReleasesEveryDescriptor(t *testing.T) {
	requireProcFDs(t)
	dir := filepath.Join(t.TempDir(), "store")
	peer := open(t, dir)
	if err := peer.Put("peer", sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	s := open(t, dir)
	if err := s.Put("own", sampleStats(2)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"peer", "own"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s missed", k)
		}
	}
	if n, _ := storeFDs(dir); n != 3 {
		t.Errorf("before Close: %d descriptors into the store, want 3 (two read, one append)", n)
	}
	s.Close()
	if n, _ := storeFDs(dir); n != 0 {
		t.Errorf("after Close: %d descriptors into the store, want 0", n)
	}
	if _, ok := s.Get("peer"); !ok {
		t.Error("closed handle no longer serves")
	}
	s.Close()
	if n, _ := storeFDs(dir); n != 0 {
		t.Errorf("after the second Close: %d descriptors into the store, want 0", n)
	}
	if st := s.Stats(); st.Repairs != 0 || st.Hits != 3 {
		t.Errorf("counters = %+v, want 3 hits and no repair", st)
	}
}

// TestDescriptorCapUnderConcurrentGets: a handle on more segments than
// it may keep open serves every record from 8 goroutines while a ninth
// keeps closing it. The descriptors it holds never exceed the cap, and
// neither eviction nor Close turns a read in flight into a repair. The
// descriptors are counted under the cache's lock, which every open and
// close of one holds: a listing of /proc/self/fd taken while they
// change can count one descriptor twice.
func TestDescriptorCapUnderConcurrentGets(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	const segs = maxOpenSegments + 8
	key := func(i int) string { return fmt.Sprintf("seg%d", i) }
	for i := range segs {
		w := open(t, dir)
		if err := w.Put(key(i), sampleStats(uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	s := open(t, dir)

	_, counting := storeFDs(dir)
	stop := make(chan struct{})
	var peak int
	var sampler sync.WaitGroup
	if counting {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.files.mu.Lock()
				n, _ := storeFDs(dir)
				s.files.mu.Unlock()
				peak = max(peak, n)
			}
		}()
	}
	const getters, rounds = 8, 3
	var wg sync.WaitGroup
	for g := range getters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for i := range segs {
					// Each goroutine walks every segment in its own order.
					k := (i*(g+1) + 5*r + g) % segs
					if got, ok := s.Get(key(k)); !ok || got.Cycles != uint64(k)+1 {
						t.Errorf("%s not served (ok=%v)", key(k), ok)
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s.Close()
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	sampler.Wait()

	if counting && peak > maxOpenSegments {
		t.Errorf("%d descriptors open into the store at once, cap %d", peak, maxOpenSegments)
	}
	if st := s.Stats(); st.Repairs != 0 || st.Misses != 0 || st.Hits != getters*rounds*segs {
		t.Errorf("counters = %+v, want %d hits, no miss, no repair", st, getters*rounds*segs)
	}
	s.Close()
	if n, _ := storeFDs(dir); n != 0 {
		t.Errorf("after Close: %d descriptors into the store, want 0", n)
	}
}

// TestDroppedHandlesReleaseDescriptors: handles opened, hit once and
// dropped without Close are collected with their descriptors, so a
// process that never closes its handles does not run out of them.
func TestDroppedHandlesReleaseDescriptors(t *testing.T) {
	requireProcFDs(t)
	dir := filepath.Join(t.TempDir(), "store")
	w := open(t, dir)
	if err := w.Put("k", sampleStats(7)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	const handles, bound = 2000, 16
	peak := 0
	for range handles {
		if _, ok := open(t, dir).Get("k"); !ok {
			t.Fatal("cell missed")
		}
		runtime.GC()
		n, _ := storeFDs(dir)
		peak = max(peak, n)
	}
	if peak > bound {
		t.Errorf("%d descriptors into the store after dropping handles, want at most %d", peak, bound)
	}
}

// TestRemovedSegment: a segment removed before the handle opened it
// costs one repair and a miss, as any unreadable record does; a
// segment the handle already holds open is still read through that
// descriptor.
func TestRemovedSegment(t *testing.T) {
	setup := func(t *testing.T) (dir, path string) {
		dir = filepath.Join(t.TempDir(), "store")
		w := open(t, dir)
		if err := w.Put("k", sampleStats(7)); err != nil {
			t.Fatal(err)
		}
		w.Close()
		path, _ = onlyRecord(t, dir)
		return dir, path
	}
	t.Run("before open", func(t *testing.T) {
		dir, path := setup(t)
		var lines []string
		s, err := Open(dir, logTo(&lines))
		if err != nil {
			t.Fatal(err)
		}
		s.Close() // the index stays; the next read must open the segment
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("k"); ok {
			t.Fatal("record of a removed segment served")
		}
		if st := s.Stats(); st.Repairs != 1 || st.Misses != 1 || st.Hits != 0 {
			t.Errorf("counters = %+v, want 1 repair and 1 miss", st)
		}
		if len(lines) != 1 || !strings.Contains(lines[0], "repaired") {
			t.Errorf("diagnostics = %q, want one repair", lines)
		}
	})
	t.Run("while kept open", func(t *testing.T) {
		dir, path := setup(t)
		s := open(t, dir)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("k"); !ok || got.Cycles != 7 {
			t.Fatalf("record behind a kept descriptor not served (ok=%v)", ok)
		}
		s.Close()
		if _, ok := s.Get("k"); ok {
			t.Fatal("record served after its descriptor closed")
		}
		if st := s.Stats(); st.Repairs != 1 || st.Hits != 1 {
			t.Errorf("counters = %+v, want 1 hit, then 1 repair", st)
		}
	})
}
