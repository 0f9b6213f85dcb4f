// Package cliflags holds the sweep-supervision flags shared by the
// sdsp-exp and sdsp-report CLIs: the persistent cell store, the
// per-cell wall-clock budget, and the transient-retry bound. Both tools
// must accept identical flags with identical validation, so the logic
// lives here once.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// Supervision collects the shared flag values. Register installs the
// flags, Apply validates them and configures a runner, and Close
// releases the store Apply opened.
type Supervision struct {
	StoreDir    string
	CellTimeout time.Duration
	Retries     int

	fs *flag.FlagSet
	st *store.Store
}

// Register installs -store, -cell-timeout, and -retries on fs (the
// process-wide flag.CommandLine when fs is nil). Call before Parse.
func (s *Supervision) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	s.fs = fs
	fs.StringVar(&s.StoreDir, "store", "",
		"persistent cell store directory: committed cells are reused across runs and processes (created on first use; its parent must exist)")
	fs.DurationVar(&s.CellTimeout, "cell-timeout", 0,
		"wall-clock budget per cell simulation attempt, e.g. 90s (0 = unlimited)")
	fs.IntVar(&s.Retries, "retries", 2,
		"max re-attempts per cell after a transient store failure")
}

// Apply validates the shared flags plus the worker count and configures
// r: it opens the store (when requested), and sets the timeout and
// retry bounds. Validation errors are one-liners suitable for stderr.
func (s *Supervision) Apply(r *experiments.Runner, jobs int, logf func(format string, args ...any)) error {
	if jobs < 1 {
		return fmt.Errorf("-j must be at least 1 (got %d)", jobs)
	}
	if s.Retries < 0 {
		return fmt.Errorf("-retries must be non-negative (got %d)", s.Retries)
	}
	// The zero default means "unlimited", but an explicit -cell-timeout 0
	// (or a negative value) is a contradiction worth rejecting: the user
	// asked for a budget that can never be met.
	explicitTimeout := false
	if s.fs != nil {
		s.fs.Visit(func(f *flag.Flag) {
			if f.Name == "cell-timeout" {
				explicitTimeout = true
			}
		})
	}
	if s.CellTimeout < 0 || (explicitTimeout && s.CellTimeout == 0) {
		return fmt.Errorf("-cell-timeout must be positive (got %v)", s.CellTimeout)
	}
	if s.StoreDir != "" {
		st, err := store.Open(s.StoreDir, logf)
		if err != nil {
			return err
		}
		r.Store, s.st = st, st
	}
	r.CellTimeout = s.CellTimeout
	r.Retries = s.Retries
	return nil
}

// Close releases the descriptors of the store Apply opened, if any.
// Call it once the run is done with the store.
func (s *Supervision) Close() {
	if s.st != nil {
		s.st.Close()
	}
}
