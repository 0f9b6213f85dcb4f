// Serve-plane chaos: SIGKILL real sdsp-serve workers and coordinators
// mid-sweep and prove the daemon's fault-tolerance contract end to end:
//
//   - the resumed job's tables are byte-identical to an uninterrupted
//     single-process sdsp-exp run of the same sweep;
//   - no cell committed before the kill is ever recomputed (proved by
//     record snapshots: a commit appends a record, never rewrites one);
//   - every lease is either committed or expired-and-requeued — the
//     leases directory is empty once the job finishes.
//
// Kill points are seeded on worker commit lines (like the sdsp-exp
// chaos tests), so failures reproduce. SDSP_CHAOS_OUT preserves the
// store on failure.
package chaostest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// Short lease + fast heartbeat so a killed worker's cells requeue
// within test time, with enough renewal slack (10x) that a live
// worker on a loaded box never looks dead.
var serveArgs = []string{"-lease", "2s", "-heartbeat", "200ms", "-poll", "50ms"}

// proc is one supervised sdsp-serve process with a scanned stderr.
type proc struct {
	t     *testing.T
	cmd   *exec.Cmd
	lines chan string // stderr lines; closed at EOF
}

// procSeq disambiguates log file names when one test starts several
// processes of the same role.
var procSeq atomic.Uint64

func startProc(t *testing.T, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(serveBin, args...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// With SDSP_SERVE_LOG_DIR set (CI does this), every process's
	// stderr is teed to a log file so a failing run leaves a full
	// fleet transcript to upload as an artifact.
	var logFile *os.File
	if dir := os.Getenv("SDSP_SERVE_LOG_DIR"); dir != "" {
		role := "coordinator"
		if len(args) > 0 && args[0] == "-worker" {
			role = "worker"
		}
		name := fmt.Sprintf("%s-%s-%d.log",
			strings.ReplaceAll(t.Name(), "/", "_"), role, procSeq.Add(1))
		if f, err := os.Create(filepath.Join(dir, name)); err == nil {
			logFile = f
		} else {
			t.Logf("cannot create fleet log %s: %v", name, err)
		}
	}
	p := &proc{t: t, cmd: cmd, lines: make(chan string, 1024)}
	go func() {
		defer close(p.lines)
		if logFile != nil {
			defer logFile.Close()
		}
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if logFile != nil {
				fmt.Fprintln(logFile, sc.Text())
			}
			select {
			case p.lines <- sc.Text():
			default: // scanner must never block on a full channel
			}
		}
	}()
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// waitLine blocks until a stderr line containing substr arrives.
func (p *proc) waitLine(substr string, timeout time.Duration) string {
	p.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.t.Fatalf("process exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			p.t.Fatalf("no %q line within %v", substr, timeout)
		}
	}
}

// kill SIGKILLs the process and reaps it.
func (p *proc) kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatal(err)
	}
	p.cmd.Wait()
}

// drain asks for a graceful stop (SIGTERM) and waits for exit.
func (p *proc) drain() {
	p.t.Helper()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		p.t.Error("process did not drain within 60s; killing")
		p.kill()
	}
}

// startCoordinator launches a coordinator on an ephemeral port and
// returns it with its base URL once it serves /healthz.
func startCoordinator(t *testing.T, storeDir string, local int) (*proc, string) {
	t.Helper()
	args := append([]string{"-store", storeDir, "-addr", "localhost:0",
		"-local", fmt.Sprint(local)}, serveArgs...)
	p := startProc(t, args...)
	line := p.waitLine("coordinator on ", 30*time.Second)
	addr := strings.TrimPrefix(line[strings.Index(line, "coordinator on "):], "coordinator on ")
	addr = strings.TrimSpace(strings.SplitN(addr, ",", 2)[0])
	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, base
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator at %s never became healthy", base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func startWorker(t *testing.T, storeDir string) *proc {
	t.Helper()
	return startProc(t, append([]string{"-worker", "-store", storeDir}, serveArgs...)...)
}

// submitSweep posts the chaos sweep (the same experiments the
// sdsp-exp reference runs) and returns the job ID.
func submitSweep(t *testing.T, base string) string {
	t.Helper()
	spec := fmt.Sprintf(`{"experiments":[%q,%q],"scale":%q}`,
		"fig3", "fig5", sweepScale)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %s: %s", resp.Status, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response %q does not name a job", body)
	}
	return st.ID
}

// fetchTables polls /tables until the job finishes.
func fetchTables(t *testing.T, base, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/tables")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return body
		case http.StatusConflict:
			if time.Now().After(deadline) {
				t.Fatalf("job %s still unfinished at deadline: %s", id, body)
			}
			time.Sleep(100 * time.Millisecond)
		default:
			t.Fatalf("tables = %s: %s", resp.Status, body)
		}
	}
}

// snapshotCells records where every committed cell's records lie,
// reading the segments without opening the store. Records are never
// rewritten, so a recompute can only show up as an extra record.
func snapshotCells(t *testing.T, storeDir string) map[string][]store.Record {
	t.Helper()
	recs, err := store.Records(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string][]store.Record{}
	for _, r := range recs {
		snap[r.Hash] = append(snap[r.Hash], r)
	}
	return snap
}

// assertUntouched proves zero recompute: every cell committed before
// the kill still has exactly the records it had, and no new one.
func assertUntouched(t *testing.T, storeDir string, snap map[string][]store.Record) {
	t.Helper()
	now := snapshotCells(t, storeDir)
	for hash, was := range snap {
		if cur := now[hash]; !slices.Equal(cur, was) {
			t.Errorf("committed cell %s has records %+v, had %+v: recompute of committed work", hash, cur, was)
		}
	}
}

// assertNoLeases proves no cell is orphaned: once the job finished,
// every lease was either released after commit or broken and requeued.
func assertNoLeases(t *testing.T, storeDir string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(storeDir, "leases"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("%d orphaned leases after completion: %v", len(entries), names)
	}
}

// TestServeWorkerKillResume: SIGKILL the only worker mid-sweep; a
// replacement worker finishes the job to byte-identical tables with
// zero recompute of the dead worker's committed cells.
func TestServeWorkerKillResume(t *testing.T) {
	ref, refExp := runToCompletion(t, filepath.Join(t.TempDir(), "refstore"))
	total := len(refExp.Cells)
	storeDir := filepath.Join(t.TempDir(), "store")
	preserveOnFailure(t, storeDir)

	coord, base := startCoordinator(t, storeDir, 0)
	id := submitSweep(t, base)

	victim := startWorker(t, storeDir)
	for i := 0; i < 3; i++ {
		victim.waitLine(" committed (", 120*time.Second)
	}
	victim.kill()

	snap := snapshotCells(t, storeDir)
	if len(snap) == 0 || len(snap) >= total {
		t.Fatalf("kill was not mid-flight: %d of %d cells committed", len(snap), total)
	}

	replacement := startWorker(t, storeDir)
	got := fetchTables(t, base, id, 300*time.Second)
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed job tables differ from uninterrupted sdsp-exp (%d vs %d bytes)", len(got), len(ref))
	}
	assertUntouched(t, storeDir, snap)
	assertNoLeases(t, storeDir)

	replacement.drain()
	coord.drain()
}

// TestServeCoordinatorKillResume: SIGKILL the coordinator mid-sweep.
// Workers keep draining the job through the shared store while no
// coordinator exists; a restarted coordinator picks the job up from
// durable state and serves byte-identical tables, recomputing nothing.
func TestServeCoordinatorKillResume(t *testing.T) {
	ref, _ := runToCompletion(t, filepath.Join(t.TempDir(), "refstore"))
	storeDir := filepath.Join(t.TempDir(), "store")
	preserveOnFailure(t, storeDir)

	coord1, base1 := startCoordinator(t, storeDir, 0)
	id := submitSweep(t, base1)

	worker := startWorker(t, storeDir)
	for i := 0; i < 2; i++ {
		worker.waitLine(" committed (", 120*time.Second)
	}
	coord1.kill()
	snap := snapshotCells(t, storeDir)
	if len(snap) == 0 {
		t.Fatal("no cells committed before the coordinator kill")
	}

	// The worker must keep making progress with the coordinator dead —
	// job discovery is store-scan, not HTTP.
	worker.waitLine(" committed (", 120*time.Second)

	coord2, base2 := startCoordinator(t, storeDir, 0)
	got := fetchTables(t, base2, id, 300*time.Second)
	if !bytes.Equal(got, ref) {
		t.Errorf("post-restart tables differ from uninterrupted sdsp-exp (%d vs %d bytes)", len(got), len(ref))
	}
	assertUntouched(t, storeDir, snap)
	assertNoLeases(t, storeDir)

	worker.drain()
	coord2.drain()
}

// TestServeTotalKillResume: SIGKILL coordinator AND worker at once —
// the whole fleet dies mid-sweep. A fresh coordinator with local
// workers resumes from durable state alone: byte-identical tables,
// zero recompute, no orphaned leases, and any lease the dead worker
// held is broken and requeued.
func TestServeTotalKillResume(t *testing.T) {
	ref, refExp := runToCompletion(t, filepath.Join(t.TempDir(), "refstore"))
	total := len(refExp.Cells)
	storeDir := filepath.Join(t.TempDir(), "store")
	preserveOnFailure(t, storeDir)

	coord1, base1 := startCoordinator(t, storeDir, 0)
	id := submitSweep(t, base1)

	worker := startWorker(t, storeDir)
	for i := 0; i < 3; i++ {
		worker.waitLine(" committed (", 120*time.Second)
	}
	worker.kill()
	coord1.kill()

	snap := snapshotCells(t, storeDir)
	if len(snap) == 0 || len(snap) >= total {
		t.Fatalf("kill was not mid-flight: %d of %d cells committed", len(snap), total)
	}

	coord2, base2 := startCoordinator(t, storeDir, 2)
	got := fetchTables(t, base2, id, 300*time.Second)
	if !bytes.Equal(got, ref) {
		t.Errorf("fleet-restart tables differ from uninterrupted sdsp-exp (%d vs %d bytes)", len(got), len(ref))
	}
	assertUntouched(t, storeDir, snap)
	assertNoLeases(t, storeDir)
	coord2.drain()
}
