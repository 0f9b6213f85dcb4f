package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/store"
)

// testFlags are fast settings for in-process tests: short leases and
// polls so nothing waits on human-scale timers.
func testFlags() cliflags.Serve {
	return cliflags.Serve{
		Addr: "localhost:0", Lease: 5 * time.Second, Heartbeat: 100 * time.Millisecond,
		Poll: 20 * time.Millisecond, MaxQueue: 4, Local: 0,
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newServer(t *testing.T, st *store.Store) *Server {
	t.Helper()
	return &Server{Store: st, Flags: testFlags(), Logf: t.Logf}
}

// referenceTables renders the spec's sweep with the plain in-process
// pipeline — the bytes every serve path must reproduce exactly.
func referenceTables(t *testing.T, sp *experiments.Sweep) []byte {
	t.Helper()
	r, exps, err := sp.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := r.RunExperiments(exps, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func submit(t *testing.T, ts *httptest.Server, sp *experiments.Sweep) (*JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := &JobStatus{}
	_ = json.NewDecoder(resp.Body).Decode(st)
	return st, resp.StatusCode
}

// TestServeEndToEnd: submit a job over HTTP, let a worker drain it
// through leases, assemble, and require the served tables to be
// byte-identical to the plain pipeline — then resubmit and get the
// finished job back immediately (content-addressed idempotence).
func TestServeEndToEnd(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cells"))
	s := newServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	status, code := submit(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if status.State != JobRunning || status.Total == 0 || status.Pending != status.Total {
		t.Fatalf("fresh job status = %+v, want all %d cells pending", status, status.Total)
	}

	// Tables while running: 409 + status.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tables while running = %d, want 409", resp.StatusCode)
	}

	// One worker drains the job.
	w := &Worker{Store: st, Flags: testFlags(), Logf: t.Logf, Owner: "test-worker"}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(ctx) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := s.planner.status(status.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Committed == cur.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker did not drain the job: %+v", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-workerDone
	s.supervise() // the coordinator pass that assembles

	client := &Client{Base: ts.URL}
	got, err := client.WaitTables(context.Background(), status.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTables(t, sp)
	if !bytes.Equal(got, want) {
		t.Errorf("served tables differ from the pipeline (%d vs %d bytes)", len(got), len(want))
	}

	// Idempotent resubmit of a finished job: immediate 200 + done.
	redo, code := submit(t, ts, &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"})
	if code != http.StatusOK || redo.State != JobDone || redo.ID != status.ID {
		t.Errorf("resubmit = %d %+v, want 200 done %s", code, redo, status.ID)
	}

	// No leases left behind.
	if leases := st.Leases(); len(leases) != 0 {
		t.Errorf("job finished with %d orphaned leases: %+v", len(leases), leases)
	}

	// Cell sharing: every committed cell is fetchable by content address.
	hashes, err := st.CellHashes()
	if err != nil || len(hashes) == 0 {
		t.Fatalf("CellHashes = %v, %v", hashes, err)
	}
	resp, err = http.Get(ts.URL + "/v1/cells/" + hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || !json.Valid(cell) {
		t.Errorf("cell fetch = %d (%d bytes), want a JSON envelope", resp.StatusCode, len(cell))
	}
	resp, err = http.Get(ts.URL + "/v1/cells/" + "../../escape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("malformed cell hash = %d, want 404", resp.StatusCode)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestSubmitValidation: a body that is not a sweep, or a sweep that
// Normalize rejects (its cases are experiments' TestSweepRejects), is a
// 400 with a diagnostic, not daemon state.
func TestSubmitValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	s := newServer(t, openStore(t, dir))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"experiments":`,
		`{"experiments":["fig3"],"scale":"small","bpred":"psychic"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `"error"`) {
			t.Errorf("submit %s = %d %s, want 400 with an error", body, resp.StatusCode, data)
		}
	}
	if ids := ListJobs(dir); len(ids) != 0 {
		t.Errorf("rejected submissions created jobs %v", ids)
	}
}

// TestBackpressure: once MaxQueue jobs are unfinished, new distinct
// submissions shed load with 503 + Retry-After, while resubmits of
// queued jobs (idempotent) still succeed.
func TestBackpressure(t *testing.T) {
	s := newServer(t, openStore(t, filepath.Join(t.TempDir(), "cells")))
	s.Flags.MaxQueue = 1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	if _, code := submit(t, ts, first); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	body, _ := json.Marshal(&experiments.Sweep{Experiments: []string{"fig4"}, Scale: "small"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-queue submit = %d (%s), want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	if !strings.Contains(string(data), "queue is full") {
		t.Errorf("503 body %q does not explain the queue", data)
	}
	// The queued job itself resubmits fine — no new queue slot needed.
	if _, code := submit(t, ts, first); code != http.StatusAccepted {
		t.Errorf("resubmit of queued job = %d, want 202", code)
	}
}

// TestReadOnlyDegradation: with the store degraded read-only, new
// compute is refused with a diagnostic 503, but finished tables and
// committed cells keep being served.
func TestReadOnlyDegradation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	st := openStore(t, dir)
	s := newServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Finish a tiny job while healthy.
	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	status, _ := submit(t, ts, sp)
	w := &Worker{Store: st, Flags: testFlags(), Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { _ = w.Run(ctx) }()
	client := &Client{Base: ts.URL}
	for {
		cur, err := s.planner.status(status.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Committed == cur.Total {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("worker never drained the job")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	s.supervise()

	st.ForceReadOnly()

	// Cached results still flow.
	if _, err := client.WaitTables(context.Background(), status.ID, time.Millisecond); err != nil {
		t.Errorf("finished tables unavailable on read-only store: %v", err)
	}
	hashes, _ := st.CellHashes()
	resp, err := http.Get(ts.URL + "/v1/cells/" + hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cell fetch on read-only store = %d, want 200", resp.StatusCode)
	}
	// Resubmitting the finished job still answers 200 done.
	if redo, code := submit(t, ts, sp); code != http.StatusOK || redo.State != JobDone {
		t.Errorf("resubmit of done job on read-only store = %d %+v", code, redo)
	}
	// New compute is refused with the degradation diagnostic.
	body, _ := json.Marshal(&experiments.Sweep{Experiments: []string{"fig4"}, Scale: "small"})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "read-only") {
		t.Errorf("new job on read-only store = %d (%s), want 503 naming read-only", resp.StatusCode, data)
	}
	// Health reports the degradation.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	hdata, _ := readAll(resp)
	if json.Unmarshal(hdata, &h) != nil || !h.ReadOnly {
		t.Errorf("healthz = %s, want read_only true", hdata)
	}
}

// TestGracefulDrain: canceling Run's context drains — the in-flight
// leased cell finishes and commits, new submissions get 503, and the
// job resumes to byte-identical completion under a fresh server.
func TestGracefulDrain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	st := openStore(t, dir)
	s := newServer(t, st)
	s.Flags.Local = 1 // drain must finish this worker's leased cell

	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	client := &Client{Base: base}
	id, err := client.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until at least one cell has committed (so the drain has
	// partial progress to preserve), then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := client.Status(context.Background(), id, false)
		if err == nil && cur.Committed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell committed before drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drained Run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete")
	}

	// Every lease was either committed or released — none orphaned.
	if leases := st.Leases(); len(leases) != 0 {
		t.Errorf("drain left %d leases behind: %+v", len(leases), leases)
	}
	committed := countCommitted(t, st)
	if committed == 0 {
		t.Error("drain preserved no committed cells")
	}

	// A fresh server over the same store resumes and finishes the job;
	// no committed cell is recomputed (worker sources are store hits).
	st2 := openStore(t, dir)
	s2 := &Server{Store: st2, Flags: testFlags(), Logf: t.Logf}
	s2.Flags.Local = 1
	ln2, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	runDone2 := make(chan error, 1)
	go func() { runDone2 <- s2.Run(ctx2, ln2) }()
	client2 := &Client{Base: "http://" + ln2.Addr().String()}
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	got, err := client2.WaitTables(wctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	<-runDone2

	if want := referenceTables(t, sp); !bytes.Equal(got, want) {
		t.Errorf("resumed tables differ from the pipeline (%d vs %d bytes)", len(got), len(want))
	}
	if hits := st2.Stats().Hits; hits < uint64(committed) {
		t.Errorf("resume re-simulated committed cells: %d store hits for %d pre-drain commits", hits, committed)
	}
}

func countCommitted(t *testing.T, st *store.Store) int {
	t.Helper()
	hashes, err := st.CellHashes()
	if err != nil {
		t.Fatal(err)
	}
	return len(hashes)
}

// TestEventsStream: the SSE endpoint reports progress and terminates
// with the terminal state.
func TestEventsStream(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cells"))
	s := newServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	status, _ := submit(t, ts, sp)

	// Drive the job in the background: worker drains, then assemble.
	go func() {
		w := &Worker{Store: st, Flags: testFlags(), Logf: t.Logf}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { _ = w.Run(ctx) }()
		for {
			cur, err := s.planner.status(status.ID, false)
			if err == nil && cur.Committed == cur.Total {
				cancel()
				s.supervise()
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []JobStatus
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.State != JobDone || last.Committed != last.Total {
		t.Errorf("final event = %+v, want done with all cells committed", last)
	}
	if len(last.Cells) != last.Total {
		t.Errorf("final event carries %d cell statuses, want %d", len(last.Cells), last.Total)
	}
	// Progress was visible: some event preceded completion.
	if events[0].State != JobRunning {
		t.Errorf("first event state = %s, want running", events[0].State)
	}
}

// TestDeadWorkerRequeue: a cell leased by a process that vanishes
// (simulated by an expired lease) is requeued by the coordinator's
// supervision pass and finished by a healthy worker.
func TestDeadWorkerRequeue(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cells"))
	s := newServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	status, _ := submit(t, ts, sp)
	pl, err := s.planner.plan(status.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A "worker" claims the first cell and dies without heartbeating:
	// its lease is held with a tiny TTL that expires immediately.
	lease, err := st.AcquireLease(pl.cells[0].Key, "doomed-worker", time.Millisecond)
	if err != nil || lease == nil {
		t.Fatalf("AcquireLease = %v, %v", lease, err)
	}
	time.Sleep(5 * time.Millisecond)

	s.supervise() // dead-worker detection: expired lease → requeue
	if got := len(st.Leases()); got != 0 {
		t.Fatalf("supervision left %d stale leases", got)
	}

	// A healthy worker now claims and finishes everything.
	w := &Worker{Store: st, Flags: testFlags(), Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { _ = w.Run(ctx) }()
	for {
		cur, err := s.planner.status(status.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Committed == cur.Total {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("requeued job never drained: %+v", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFailureRecordFailsJob: a worker's durable failure record drives
// the job to the failed terminal state with the diagnostic attached.
func TestFailureRecordFailsJob(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cells"))
	s := newServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := &experiments.Sweep{Experiments: []string{"fig3"}, Scale: "small"}
	status, _ := submit(t, ts, sp)
	pl, err := s.planner.plan(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	// One cell fails terminally; a worker commits the rest.
	doomed := pl.cells[0]
	if err := writeFailure(st.Dir(), status.ID, FailureRecord{
		Key: doomed.Key, Label: doomed.Label, Error: "synthetic terminal failure", Worker: "test",
	}); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Store: st, Flags: testFlags(), Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { _ = w.Run(ctx) }()
	for {
		cur, err := s.planner.status(status.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Committed == cur.Total-1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("worker never drained around the failed cell: %+v", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.supervise()

	cur, err := s.planner.status(status.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != JobFailed || !strings.Contains(cur.Error, "failed terminally") {
		t.Fatalf("job state = %+v, want failed with diagnostic", cur)
	}
	// The worker skipped the failed cell instead of retrying forever.
	if cur.Failed != 1 {
		t.Errorf("failed cells = %d, want exactly the recorded one", cur.Failed)
	}
	// WaitTables surfaces the failure as an error.
	client := &Client{Base: ts.URL}
	if _, err := client.WaitTables(context.Background(), status.ID, time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "failed") {
		t.Errorf("WaitTables on failed job = %v, want failure error", err)
	}
}
