package chaostest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestServeBadCellTimeoutCreatesNoStore: sdsp-serve validates
// -cell-timeout as sdsp-exp does, before it opens, and so creates, its
// -store directory. As coordinator and as worker, a negative or an
// explicit zero budget exits 2 naming the value and leaves no store.
func TestServeBadCellTimeoutCreatesNoStore(t *testing.T) {
	roles := []struct {
		name string
		args []string
	}{
		{"coordinator", []string{"-addr", "127.0.0.1:0", "-local", "0"}},
		{"worker", []string{"-worker"}},
	}
	for _, role := range roles {
		for _, value := range []string{"-5s", "0"} {
			t.Run(role.name+"/"+value, func(t *testing.T) {
				d, err := time.ParseDuration(value)
				if err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join(t.TempDir(), "NEW")
				// A process that accepted the value would serve until
				// killed; the deadline turns that into a failure.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				args := append([]string{"-store", dir, "-cell-timeout", value}, role.args...)
				cmd := exec.CommandContext(ctx, serveBin, args...)
				var stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stderr, &stderr
				err = cmd.Run()
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Fatalf("%v: %v, want exit status 2\n%s", args, err, stderr.String())
				}
				if want := "-cell-timeout must be positive (got " + d.String() + ")"; !strings.Contains(stderr.String(), want) {
					t.Errorf("%v: diagnostic %q does not contain %q", args, stderr.String(), want)
				}
				if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%v left %s behind (stat: %v)", args, dir, err)
				}
			})
		}
	}
}
