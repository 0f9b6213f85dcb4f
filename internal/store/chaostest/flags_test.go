package chaostest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsCreateNoStore: sdsp-exp validates its whole sweep before
// it opens, and so creates, its -store directory. A bad value of any
// sweep flag exits 2 naming the value and leaves no store behind.
func TestBadFlagsCreateNoStore(t *testing.T) {
	for _, name := range []string{"fault", "bpred", "fetch", "exp", "scale"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "NEW")
			// The bad value comes last, so it overrides the small sweep.
			cmd := exec.Command(expBin, "-scale", sweepScale, "-exp", "fig3",
				"-store", dir, "-"+name, "bogus")
			var stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stderr, &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("-%s bogus: %v, want exit status 2\n%s", name, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "bogus") {
				t.Errorf("-%s bogus: diagnostic does not name the value: %q", name, stderr.String())
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("-%s bogus left %s behind (stat: %v)", name, dir, err)
			}
		})
	}
}
