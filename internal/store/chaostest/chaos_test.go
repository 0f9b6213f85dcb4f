// Package chaostest kills real sdsp-exp sweeps mid-flight and proves
// the persistent cell store's crash-safety contract end to end:
//
//   - a sweep killed at any point and restarted against the same store
//     produces byte-identical tables;
//   - no cell the killed sweep committed is ever recomputed;
//   - two concurrent sweeps sharing one store both complete correctly.
//
// The kill points are seeded (fixed fractions of the cell count), so a
// failure here reproduces. On failure, set SDSP_CHAOS_OUT to a
// directory to preserve the store state for post-mortem.
package chaostest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

const (
	sweepExps  = "fig3,fig5"
	sweepScale = "small"
)

// expBin and serveBin are the binaries under test, built once by
// TestMain.
var (
	expBin   string
	serveBin string
)

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "sdsp-chaos-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaostest:", err)
		os.Exit(1)
	}
	expBin = filepath.Join(tmp, "sdsp-exp")
	serveBin = filepath.Join(tmp, "sdsp-serve")
	for bin, pkg := range map[string]string{
		expBin:   "repro/cmd/sdsp-exp",
		serveBin: "repro/cmd/sdsp-serve",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "chaostest: cannot build %s: %v\n", pkg, err)
			os.RemoveAll(tmp)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// export mirrors the slice of sdsp-exp's -json payload the harness
// asserts on.
type export struct {
	Cells []struct {
		Key    string `json:"key"`
		Source string `json:"source"`
	} `json:"cells"`
	Store struct {
		Hits    uint64 `json:"hits"`
		Commits uint64 `json:"commits"`
	} `json:"store"`
}

// runToCompletion runs the reference sweep against storeDir and returns
// its stdout bytes and parsed -json export.
func runToCompletion(t *testing.T, storeDir string) ([]byte, export) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "timing.json")
	cmd := exec.Command(expBin, "-scale", sweepScale, "-exp", sweepExps,
		"-j", "4", "-store", storeDir, "-json", jsonPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep failed: %v\nstderr:\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var exp export
	if err := json.Unmarshal(data, &exp); err != nil {
		t.Fatalf("timing export does not parse: %v", err)
	}
	return stdout.Bytes(), exp
}

// killAfter starts a sequential sweep against storeDir and SIGKILLs it
// right after its n-th fresh-simulation progress line — a seeded
// mid-flight crash.
func killAfter(t *testing.T, storeDir string, n int) {
	t.Helper()
	cmd := exec.Command(expBin, "-scale", sweepScale, "-exp", sweepExps,
		"-j", "1", "-store", storeDir, "-v")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	seen, killed := 0, false
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "cycles (IPC") {
			if seen++; seen == n {
				killed = true
				if err := cmd.Process.Kill(); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	if !killed {
		t.Fatalf("sweep emitted only %d progress lines; kill point %d never arrived", seen, n)
	}
	if err == nil {
		t.Fatalf("kill point %d: process exited cleanly despite SIGKILL", n)
	}
}

// committedHashes snapshots the store's committed cell hashes with
// store.Records, which only reads the segments — no store is opened,
// so the post-kill state reaches the resumed sweep untouched.
func committedHashes(t *testing.T, storeDir string) map[string]bool {
	t.Helper()
	recs, err := store.Records(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]bool{}
	for _, r := range recs {
		hashes[r.Hash] = true
	}
	return hashes
}

// preserveOnFailure copies the store tree to $SDSP_CHAOS_OUT when the
// test fails, so the exact post-crash state can be examined.
func preserveOnFailure(t *testing.T, storeDir string) {
	t.Cleanup(func() {
		out := os.Getenv("SDSP_CHAOS_OUT")
		if !t.Failed() || out == "" {
			return
		}
		dst := filepath.Join(out, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := exec.Command("cp", "-r", storeDir, dst).Run(); err != nil {
			t.Logf("could not preserve store state: %v", err)
		} else {
			t.Logf("store state preserved at %s", dst)
		}
	})
}

// TestKillResumeByteIdentical is the acceptance test: kill a sweep at
// five seeded mid-flight points; each restart must render byte-identical
// tables and must not recompute any committed cell.
func TestKillResumeByteIdentical(t *testing.T) {
	ref, refExp := runToCompletion(t, filepath.Join(t.TempDir(), "refstore"))
	total := len(refExp.Cells)
	if total < 10 {
		t.Fatalf("reference sweep has only %d cells; too small to chaos-test", total)
	}

	// A cell's progress line precedes its commit, so killing right after
	// line n guarantees cells 1..n-1 are durable: the earliest seeded
	// point is 2, ensuring every crash leaves at least one committed cell.
	killPoints := []int{2, total / 8, total / 4, total / 2, 3 * total / 4}
	for i := 1; i < len(killPoints); i++ {
		if killPoints[i] <= killPoints[i-1] {
			killPoints[i] = killPoints[i-1] + 1
		}
	}
	for _, n := range killPoints {
		t.Run(fmt.Sprintf("kill-after-%d", n), func(t *testing.T) {
			storeDir := filepath.Join(t.TempDir(), "store")
			preserveOnFailure(t, storeDir)

			killAfter(t, storeDir, n)
			committed := committedHashes(t, storeDir)
			if len(committed) == 0 || len(committed) >= total {
				t.Fatalf("kill was not mid-flight: %d of %d cells committed", len(committed), total)
			}

			out, exp := runToCompletion(t, storeDir)
			if !bytes.Equal(out, ref) {
				t.Errorf("resumed sweep output differs from the uninterrupted reference (%d vs %d bytes)",
					len(out), len(ref))
			}
			sim, served := 0, 0
			for _, c := range exp.Cells {
				switch c.Source {
				case "sim":
					sim++
					if committed[store.HashKey(c.Key)] {
						t.Errorf("committed cell was recomputed: %s", c.Key)
					}
				case "store":
					served++
				default:
					t.Errorf("cell %s has unexpected source %q", c.Key, c.Source)
				}
			}
			if served != len(committed) || sim != total-len(committed) {
				t.Errorf("resume did %d sims and %d serves over %d committed of %d total; want exactly the complement",
					sim, served, len(committed), total)
			}
		})
	}
}

// TestConcurrentSweepsShareOneStore: two whole processes racing on one
// store must both complete with reference-identical tables, and the
// store must end consistent (every cell committed, no stuck locks).
func TestConcurrentSweepsShareOneStore(t *testing.T) {
	ref, refExp := runToCompletion(t, filepath.Join(t.TempDir(), "refstore"))
	storeDir := filepath.Join(t.TempDir(), "store")
	preserveOnFailure(t, storeDir)

	type res struct {
		out    []byte
		stderr string
		err    error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cmd := exec.Command(expBin, "-scale", sweepScale, "-exp", sweepExps,
				"-j", "4", "-store", storeDir)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			results <- res{stdout.Bytes(), stderr.String(), err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent sweep failed: %v\nstderr:\n%s", r.err, r.stderr)
		}
		if !bytes.Equal(r.out, ref) {
			t.Error("concurrent sweep output differs from the reference")
		}
	}
	if got := len(committedHashes(t, storeDir)); got != len(refExp.Cells) {
		t.Errorf("store holds %d cells after concurrent sweeps, want %d", got, len(refExp.Cells))
	}
	locks, err := os.ReadDir(filepath.Join(storeDir, "locks"))
	if err == nil && len(locks) != 0 {
		t.Errorf("%d lock files left behind after clean completion", len(locks))
	}
}
