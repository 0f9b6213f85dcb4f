package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Server is the sdsp-serve coordinator: the HTTP/JSON job API plus
// the supervision loop that detects dead workers (expired leases →
// requeue), finishes jobs (assembles tables when the last cell
// commits), and optionally runs local worker goroutines. All job
// state is durable in the store; the server itself holds only caches
// and can be SIGKILLed and restarted at any point.
//
// API:
//
//	POST /v1/jobs              submit an experiments.Sweep → 202 (accepted), 200 (already done),
//	                           503 + Retry-After (queue full / draining / store read-only)
//	GET  /v1/jobs              list job IDs with states
//	GET  /v1/jobs/{id}         JobStatus (…?cells=1 for per-cell detail)
//	GET  /v1/jobs/{id}/tables  assembled tables (text) → 200, or 409 + JobStatus while running
//	GET  /v1/jobs/{id}/events  Server-Sent Events stream of JobStatus until terminal
//	GET  /v1/cells/{hash}      raw committed cell envelope (cache sharing) → 200 / 404
//	GET  /healthz              liveness + degradation report
type Server struct {
	Store       *store.Store
	Flags       cliflags.Serve
	CellTimeout time.Duration
	Retries     int
	Logf        func(format string, args ...any) // nil = silent

	draining atomic.Bool
	planner  *planner
	initOnce sync.Once
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		if s.planner == nil {
			s.planner = newPlanner(s.Store, s.CellTimeout, s.Retries)
		}
	})
}

// Handler returns the coordinator's HTTP handler (exposed separately
// from Run so tests can drive the API without a socket).
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/cells/", s.handleCell)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// Run serves the API on ln and supervises jobs until ctx is canceled,
// then drains: new submissions are refused, local workers finish
// their leased cells and commit, one final supervision pass assembles
// anything that just completed, and the HTTP server shuts down. A
// non-graceful death (SIGKILL) skips all of that harmlessly — the
// durable state is designed for it.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	s.init()
	httpSrv := &http.Server{Handler: s.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < s.Flags.Local; i++ {
		w := &Worker{
			Store: s.Store, Flags: s.Flags,
			CellTimeout: s.CellTimeout, Retries: s.Retries,
			Owner: fmt.Sprintf("coordinator-local-%d/pid%d", i, os.Getpid()),
			Logf:  s.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(workerCtx)
		}()
	}

	tick := time.NewTicker(s.superviseEvery())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.draining.Store(true)
			s.logf("serve: draining — refusing new jobs, finishing leased cells")
			stopWorkers()
			wg.Wait()
			s.supervise() // cells committed during the drain may finish a job
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutCtx)
			<-httpErr
			s.logf("serve: drained")
			return nil
		case err := <-httpErr:
			stopWorkers()
			wg.Wait()
			return err
		case <-tick.C:
			s.supervise()
		}
	}
}

// superviseEvery is the supervision cadence: fast enough that a dead
// worker's cells requeue within about a lease, frequent enough that
// job completion is detected promptly, but never busier than the
// worker poll interval.
func (s *Server) superviseEvery() time.Duration {
	d := s.Flags.Lease / 4
	if d < s.Flags.Poll {
		d = s.Flags.Poll
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// supervise is one pass of the coordinator's control loop: break
// leases of dead/wedged workers, then finish any job whose cells have
// all resolved.
func (s *Server) supervise() {
	if n := s.Store.BreakExpiredLeases(); n > 0 {
		s.logf("serve: requeued %d cell(s) from dead or wedged workers", n)
	}
	for _, id := range ListJobs(s.Store.Dir()) {
		st, err := s.planner.status(id, false)
		if err != nil {
			s.logf("serve: job %s: %v", id, err)
			continue
		}
		if st.State != JobRunning || st.Pending+st.Leased > 0 {
			continue
		}
		s.finishJob(id, st)
	}
}

// finishJob writes the terminal marker for a job whose every cell has
// resolved: failed.json when any cell failed terminally, otherwise
// the assembled tables. Both writes are atomic and idempotent, so two
// coordinators (or a pre-kill and post-restart one) racing here
// converge on identical bytes.
func (s *Server) finishJob(id string, st *JobStatus) {
	dir := jobDir(s.Store.Dir(), id)
	if st.Failed > 0 {
		var rep FailedReport
		for _, rec := range readFailures(s.Store.Dir(), id) {
			rep.Cells = append(rep.Cells, rec)
		}
		rep.Error = fmt.Sprintf("%d cell(s) failed terminally", st.Failed)
		data, _ := json.MarshalIndent(&rep, "", "  ")
		if err := store.AtomicWrite(filepath.Join(dir, failedFile), append(data, '\n')); err != nil {
			s.logf("serve: job %s: recording failure: %v", id, err)
			return
		}
		s.logf("serve: job %s failed (%s)", id, rep.Error)
		return
	}
	pl, err := s.planner.plan(id)
	if err != nil {
		s.logf("serve: job %s: %v", id, err)
		return
	}
	out, err := pl.assemble(s.planner)
	if err != nil {
		rep := FailedReport{Error: fmt.Sprintf("assembly failed: %v", err)}
		data, _ := json.MarshalIndent(&rep, "", "  ")
		_ = store.AtomicWrite(filepath.Join(dir, failedFile), append(data, '\n'))
		s.logf("serve: job %s failed at assembly: %v", id, err)
		return
	}
	if err := store.AtomicWrite(filepath.Join(dir, tablesFile), out); err != nil {
		s.logf("serve: job %s: writing tables: %v", id, err)
		return
	}
	s.logf("serve: job %s done (%d cells, %d bytes of tables)", id, st.Total, len(out))
}

// --- HTTP handlers ---

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.MarshalIndent(v, "", "  ")
	w.Write(append(data, '\n'))
}

// unavailable sheds load: 503 with a Retry-After so clients back off
// instead of hammering a coordinator that is full, draining, or
// running on a degraded store.
func (s *Server) unavailable(w http.ResponseWriter, why string) {
	w.Header().Set("Retry-After", "5")
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: why})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submitJob(w, r)
	case http.MethodGet:
		type entry struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		out := []entry{}
		for _, id := range ListJobs(s.Store.Dir()) {
			st, err := s.planner.status(id, false)
			if err != nil {
				continue
			}
			out = append(out, entry{ID: id, State: st.State})
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "use POST to submit or GET to list"})
	}
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var sp experiments.Sweep
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&sp); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	if err := sp.Normalize(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	id := sp.ID()

	// An already-finished job is served regardless of degradation: the
	// whole point of read-only mode is that cached results stay available.
	if st, err := s.planner.status(id, false); err == nil && st.State != JobRunning {
		writeJSON(w, http.StatusOK, st)
		return
	}

	if s.draining.Load() {
		s.unavailable(w, "coordinator is draining; resubmit to the next instance")
		return
	}
	if s.Store.ReadOnly() {
		s.unavailable(w, "store is read-only (disk trouble or forced degradation): cached cells and finished tables are still served, but new sweeps cannot be computed")
		return
	}
	if known := ListJobs(s.Store.Dir()); !containsJob(known, id) {
		unfinished := 0
		for _, jid := range known {
			if st, err := s.planner.status(jid, false); err == nil && st.State == JobRunning {
				unfinished++
			}
		}
		if unfinished >= s.Flags.MaxQueue {
			s.unavailable(w, fmt.Sprintf("job queue is full (%d unfinished, max %d)", unfinished, s.Flags.MaxQueue))
			return
		}
	}

	if _, err := WriteSpec(s.Store.Dir(), &sp); err != nil {
		s.unavailable(w, fmt.Sprintf("persisting job: %v", err))
		return
	}
	st, err := s.planner.status(id, false)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func containsJob(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if !validJobID(id) {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("malformed job id %q", id)})
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "job resources are read-only"})
		return
	}
	switch sub {
	case "":
		st, err := s.planner.status(id, r.URL.Query().Get("cells") != "")
		if err != nil {
			s.jobError(w, id, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case "tables":
		s.handleTables(w, id)
	case "events":
		s.handleEvents(w, r, id)
	default:
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no job resource %q", sub)})
	}
}

func (s *Server) jobError(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, os.ErrNotExist) {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no job %s", id)})
		return
	}
	writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
}

// handleTables serves the assembled sweep output, or 409 + status
// while the job is still running (the client's cue to keep polling).
func (s *Server) handleTables(w http.ResponseWriter, id string) {
	data, err := os.ReadFile(filepath.Join(jobDir(s.Store.Dir(), id), tablesFile))
	if err == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(data)
		return
	}
	st, serr := s.planner.status(id, false)
	if serr != nil {
		s.jobError(w, id, serr)
		return
	}
	writeJSON(w, http.StatusConflict, st)
}

// handleEvents streams JobStatus as Server-Sent Events: one event per
// observable change, ending after the terminal state is sent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported by this connection"})
		return
	}
	if _, err := s.planner.status(id, false); err != nil {
		s.jobError(w, id, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var last []byte
	tick := time.NewTicker(s.Flags.Poll)
	defer tick.Stop()
	for {
		st, err := s.planner.status(id, true)
		if err != nil {
			return
		}
		data, _ := json.Marshal(st)
		if string(data) != string(last) {
			fmt.Fprintf(w, "data: %s\n\n", data)
			flusher.Flush()
			last = data
		}
		if st.State != JobRunning {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// handleCell shares one committed cell envelope by content address —
// a peer store can install the bytes directly and let its own Get
// verify the embedded key + checksum.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "cells are read-only"})
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/cells/")
	data, err := s.Store.CellByHash(hash)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no committed cell %s", hash)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

type health struct {
	OK       bool           `json:"ok"`
	ReadOnly bool           `json:"read_only"`
	Draining bool           `json:"draining"`
	Jobs     map[string]int `json:"jobs"`
	Leases   int            `json:"leases"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := health{OK: true, ReadOnly: s.Store.ReadOnly(), Draining: s.draining.Load(),
		Jobs: map[string]int{}}
	for _, id := range ListJobs(s.Store.Dir()) {
		if st, err := s.planner.status(id, false); err == nil {
			h.Jobs[st.State]++
		}
	}
	h.Leases = len(s.Store.Leases())
	writeJSON(w, http.StatusOK, h)
}
