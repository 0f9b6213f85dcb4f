package cliflags

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestServeFlagDefaultsAreValid: whatever RegisterServe installs as
// defaults must pass Validate in both modes — a daemon that rejects
// its own defaults is unlaunchable.
func TestServeFlagDefaultsAreValid(t *testing.T) {
	var s Serve
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	s.RegisterServe(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	for _, worker := range []bool{false, true} {
		if err := s.Validate(worker); err != nil {
			t.Errorf("default flags invalid (worker=%v): %v", worker, err)
		}
	}
}

// TestServeFlagValidation is the shared-validation table: every rule
// the coordinator and worker modes enforce, including which rules the
// worker mode is exempt from (it has no listen address or queue).
func TestServeFlagValidation(t *testing.T) {
	valid := Serve{
		Addr: "localhost:8372", Lease: 30 * time.Second,
		Poll: 500 * time.Millisecond, MaxQueue: 8, Local: 1,
	}
	cases := []struct {
		name    string
		mutate  func(*Serve)
		worker  bool
		wantErr string // substring; "" = must pass
	}{
		{name: "valid coordinator", mutate: func(*Serve) {}},
		{name: "valid worker", mutate: func(*Serve) {}, worker: true},

		{name: "zero lease", mutate: func(s *Serve) { s.Lease = 0 }, wantErr: "-lease must be positive"},
		{name: "negative lease", mutate: func(s *Serve) { s.Lease = -time.Second }, wantErr: "-lease must be positive"},
		{name: "smallest lease", mutate: func(s *Serve) { s.Lease = time.Nanosecond }, worker: true},
		{name: "zero poll", mutate: func(s *Serve) { s.Poll = 0 }, wantErr: "-poll must be positive"},
		{name: "negative poll", mutate: func(s *Serve) { s.Poll = -time.Millisecond }, wantErr: "-poll must be positive"},

		{name: "addr missing port", mutate: func(s *Serve) { s.Addr = "localhost" }, wantErr: "not host:port"},
		{name: "addr empty", mutate: func(s *Serve) { s.Addr = "" }, wantErr: "not host:port"},
		{name: "addr empty port", mutate: func(s *Serve) { s.Addr = "localhost:" }, wantErr: "no port"},
		{name: "addr garbage host", mutate: func(s *Serve) { s.Addr = "bad host!:80" }, wantErr: "malformed host"},
		{name: "addr dot label", mutate: func(s *Serve) { s.Addr = ".example.com:80" }, wantErr: "malformed host"},
		{name: "addr bind-all", mutate: func(s *Serve) { s.Addr = ":8372" }},
		{name: "addr ipv6", mutate: func(s *Serve) { s.Addr = "[::1]:8372" }},
		{name: "addr ipv4", mutate: func(s *Serve) { s.Addr = "127.0.0.1:8372" }},
		{name: "addr hostname", mutate: func(s *Serve) { s.Addr = "coord.internal:8372" }},
		{
			name:   "worker ignores addr",
			mutate: func(s *Serve) { s.Addr = "not an address" },
			worker: true,
		},

		{name: "zero max-queue", mutate: func(s *Serve) { s.MaxQueue = 0 }, wantErr: "-max-queue must be at least 1"},
		{name: "negative max-queue", mutate: func(s *Serve) { s.MaxQueue = -4 }, wantErr: "-max-queue must be at least 1"},
		{
			name:   "worker ignores max-queue",
			mutate: func(s *Serve) { s.MaxQueue = 0 },
			worker: true,
		},
		{name: "negative local", mutate: func(s *Serve) { s.Local = -1 }, wantErr: "-local must be non-negative"},
		{name: "zero local is a pure supervisor", mutate: func(s *Serve) { s.Local = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mutate(&s)
			err := s.Validate(tc.worker)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(worker=%v) = %v, want nil", tc.worker, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate(worker=%v) = %v, want error containing %q", tc.worker, err, tc.wantErr)
			}
		})
	}
}
