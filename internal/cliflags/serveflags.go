package cliflags

import (
	"flag"
	"fmt"
	"net"
	"time"
)

// Serve collects the sdsp-serve coordinator/worker flags. Like
// Supervision, registration and validation live here once so every
// mode of the daemon (coordinator, worker, client) accepts identical
// flags with identical validation, and so the rules are table-testable
// without a process.
type Serve struct {
	Addr     string        // coordinator listen address / client target
	Lease    time.Duration // worker cell-claim lease (dead-worker detection horizon)
	Poll     time.Duration // worker job-discovery poll interval
	MaxQueue int           // max unfinished jobs before submits shed load (503)
	Local    int           // coordinator-local worker goroutines (0 = pure supervisor)
}

// RegisterServe installs the serve flags on fs (flag.CommandLine when
// nil). Call before Parse.
func (s *Serve) RegisterServe(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&s.Addr, "addr", "localhost:8372",
		"coordinator listen address (host:port; host may be empty to bind all interfaces)")
	fs.DurationVar(&s.Lease, "lease", 30*time.Second,
		"worker cell-claim lease: a worker silent this long is declared dead and its cell requeued (workers heartbeat six times a lease)")
	fs.DurationVar(&s.Poll, "poll", 500*time.Millisecond,
		"worker poll interval for new jobs and newly claimable cells")
	fs.IntVar(&s.MaxQueue, "max-queue", 8,
		"max unfinished jobs held before new submissions are refused with 503 + Retry-After")
	fs.IntVar(&s.Local, "local", 1,
		"worker goroutines the coordinator itself runs (0 = rely entirely on external -worker processes)")
}

// Validate checks the serve flags. worker selects the rules for worker
// mode, which has no listen address or queue to validate. Errors are
// one-liners suitable for stderr.
func (s *Serve) Validate(worker bool) error {
	if s.Lease <= 0 {
		return fmt.Errorf("-lease must be positive (got %v)", s.Lease)
	}
	if s.Poll <= 0 {
		return fmt.Errorf("-poll must be positive (got %v)", s.Poll)
	}
	if worker {
		return nil
	}
	if host, port, err := net.SplitHostPort(s.Addr); err != nil {
		return fmt.Errorf("-addr %q is not host:port: %v", s.Addr, err)
	} else if port == "" {
		return fmt.Errorf("-addr %q has no port", s.Addr)
	} else if host != "" && net.ParseIP(host) == nil && !validHostname(host) {
		return fmt.Errorf("-addr %q has a malformed host", s.Addr)
	}
	if s.MaxQueue < 1 {
		return fmt.Errorf("-max-queue must be at least 1 (got %d)", s.MaxQueue)
	}
	if s.Local < 0 {
		return fmt.Errorf("-local must be non-negative (got %d)", s.Local)
	}
	return nil
}

// validHostname accepts DNS-style names: letters, digits, hyphens, and
// dots, with non-empty labels.
func validHostname(host string) bool {
	lastDot := true // leading dot would make an empty label
	for _, r := range host {
		switch {
		case r == '.':
			if lastDot {
				return false
			}
			lastDot = true
		case r == '-' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			lastDot = false
		default:
			return false
		}
	}
	return !lastDot
}
