// Package cliflags holds the sweep-supervision flags shared by the
// sdsp-exp and sdsp-report CLIs: the persistent cell store and the
// per-cell wall-clock budget. Both tools must accept identical flags
// with identical validation, so the logic lives here once.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// Supervision collects the shared flag values. Register installs the
// flags, Validate checks them, Apply validates them and configures a
// runner, and Close releases the store Apply opened.
type Supervision struct {
	StoreDir    string
	CellTimeout time.Duration

	fs *flag.FlagSet
	st *store.Store
}

// Register installs -store and -cell-timeout on fs (the process-wide
// flag.CommandLine when fs is nil). Call before Parse.
func (s *Supervision) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	s.fs = fs
	fs.StringVar(&s.StoreDir, "store", "",
		"persistent cell store directory: committed cells are reused across runs and processes (created on first use; its parent must exist)")
	fs.DurationVar(&s.CellTimeout, "cell-timeout", 0,
		"wall-clock budget per cell simulation, e.g. 90s (0 = unlimited)")
}

// Apply validates the shared flags plus the worker count and configures
// r: it opens the store (when requested) and sets the timeout.
// Validation errors are one-liners suitable for stderr.
func (s *Supervision) Apply(r *experiments.Runner, jobs int, logf func(format string, args ...any)) error {
	if jobs < 1 {
		return fmt.Errorf("-j must be at least 1 (got %d)", jobs)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if s.StoreDir != "" {
		st, err := store.Open(s.StoreDir, logf)
		if err != nil {
			return err
		}
		r.Store, s.st = st, st
	}
	r.CellTimeout = s.CellTimeout
	return nil
}

// Validate checks the shared flags without side effects, so a command
// that opens the store itself (sdsp-serve) can reject a bad value
// before the store directory exists. Apply calls it.
func (s *Supervision) Validate() error {
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
	return nil
}

// Close releases the descriptors of the store Apply opened, if any.
// Call it once the run is done with the store.
func (s *Supervision) Close() {
	if s.st != nil {
		s.st.Close()
	}
}
