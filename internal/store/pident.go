package store

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// procIdent identifies a process, to decide whether a claim's owner or
// a segment's writer is gone.
// A bare PID is not an identity: PIDs are recycled, and once workers
// churn constantly a lock naming PID 4321 may outlive its owner and be
// "kept alive" by a completely unrelated process that happened to get
// the number. The kernel start time (clock ticks since boot, field 22
// of /proc/<pid>/stat) disambiguates: two processes can share a PID,
// never a (PID, start-time) pair.
type procIdent struct {
	PID int `json:"pid"`
	// Start is the owner's kernel start time in clock ticks, or 0 when
	// it could not be determined (non-Linux hosts, procfs unavailable).
	// A zero on either side of a comparison degrades to PID-only
	// liveness — the pre-fix behavior — rather than breaking a possibly
	// live lock.
	Start uint64 `json:"start,omitempty"`
}

// selfIdent returns the calling process's identity, read from procfs
// once per process.
var selfIdent = sync.OnceValue(func() procIdent {
	start, _ := pidStartTime(os.Getpid())
	return procIdent{PID: os.Getpid(), Start: start}
})

// alive reports whether the process this identity names still exists.
// It is the staleness oracle for claims and segment writers: a dead
// PID is stale, and a live PID whose start time does not match the
// recorded one is a *different* process that recycled the number —
// equally stale.
func (p procIdent) alive() bool {
	if p.PID <= 0 || !pidAlive(p.PID) {
		return false
	}
	if p.Start == 0 {
		return true // no recorded identity: PID-only fallback
	}
	start, ok := pidStartTime(p.PID)
	if !ok {
		return true // cannot read the live process: assume it is the owner
	}
	return start == p.Start
}

// pidAlive probes pid with signal 0. EPERM means the process exists but
// belongs to another user — still alive.
func pidAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// pidStartTime reads pid's kernel start time from /proc/<pid>/stat.
// The comm field (2) is an arbitrary string in parentheses and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'. Returns ok=false when procfs is unavailable or unparsable.
func pidStartTime(pid int) (uint64, bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, false
	}
	line := string(data)
	close := strings.LastIndexByte(line, ')')
	if close < 0 {
		return 0, false
	}
	// After ") " the next field is 3 (state); start time is field 22,
	// i.e. index 19 of the post-comm fields.
	rest := strings.Fields(line[close+1:])
	if len(rest) < 20 {
		return 0, false
	}
	start, err := strconv.ParseUint(rest[19], 10, 64)
	if err != nil {
		return 0, false
	}
	return start, true
}
