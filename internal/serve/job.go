// Package serve is the sdsp-serve daemon plane: a coordinator that
// accepts sweep jobs over HTTP and supervises their execution, and
// workers that claim individual cells through the store and simulate
// them. All durable state — job specs, committed cells, claims,
// failure records, assembled tables — lives in the cell store
// directory, never in process memory, which is what makes every
// process in the fleet (coordinator included) safe to SIGKILL: a
// restart rescans the store and resumes exactly where the dead
// process stopped, recomputing nothing that was committed.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// Durable job layout, under <store>/jobs/<id>/:
//
//	spec.json            the normalized experiments.Sweep (atomic; presence = job exists)
//	failures/<hash>.json one FailureRecord per terminally failed cell
//	tables.txt           the assembled sweep output (atomic; presence = done)
//	failed.json          terminal failure report (atomic; presence = failed)
//
// Every transition is one atomic file creation (store.AtomicWrite), so
// a SIGKILL between any two steps leaves a state the scanner fully
// understands. A writer killed mid-write leaves an inert temp file
// that nothing removes: no reader can tell it from a live writer's.
const (
	specFile    = "spec.json"
	tablesFile  = "tables.txt"
	failedFile  = "failed.json"
	failuresDir = "failures"
)

// FailureRecord is a worker's durable report of one cell that failed
// terminally (supervision retries exhausted, non-quarantine). Its
// presence stops other workers from re-claiming the cell forever and
// gives the coordinator the diagnostic for failed.json.
type FailureRecord struct {
	Key    string `json:"key"`
	Label  string `json:"label"`
	Error  string `json:"error"`
	Worker string `json:"worker"`
}

// FailedReport is the terminal failed.json payload.
type FailedReport struct {
	Error string          `json:"error"`
	Cells []FailureRecord `json:"cells,omitempty"`
}

// JobsDir returns the jobs root inside a store directory.
func JobsDir(storeDir string) string { return filepath.Join(storeDir, "jobs") }

func jobDir(storeDir, id string) string { return filepath.Join(JobsDir(storeDir), id) }

// validJobID guards path construction from URL input: IDs are "j" +
// 12 hex digits, nothing else reaches the filesystem.
func validJobID(id string) bool {
	if len(id) != 13 || id[0] != 'j' {
		return false
	}
	for _, r := range id[1:] {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// WriteSpec durably creates the job named by the normalized sweep's ID
// (idempotent: an existing spec is left untouched — it is
// content-addressed, so it must be identical).
func WriteSpec(storeDir string, sp *experiments.Sweep) (string, error) {
	id := sp.ID()
	dir := jobDir(storeDir, id)
	if err := os.MkdirAll(filepath.Join(dir, failuresDir), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, specFile)
	if _, err := os.Stat(path); err == nil {
		return id, nil
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return "", err
	}
	return id, store.AtomicWrite(path, append(data, '\n'))
}

// ReadSpec loads a job's spec, reporting os.ErrNotExist for an
// unknown job.
func ReadSpec(storeDir, id string) (*experiments.Sweep, error) {
	if !validJobID(id) {
		return nil, fmt.Errorf("malformed job id %q: %w", id, os.ErrNotExist)
	}
	data, err := os.ReadFile(filepath.Join(jobDir(storeDir, id), specFile))
	if err != nil {
		return nil, err
	}
	sp := &experiments.Sweep{}
	if err := json.Unmarshal(data, sp); err != nil {
		return nil, fmt.Errorf("job %s has a corrupt spec: %w", id, err)
	}
	return sp, nil
}

// ListJobs returns the IDs of every durable job, sorted, so scans are
// deterministic across processes.
func ListJobs(storeDir string) []string {
	entries, err := os.ReadDir(JobsDir(storeDir))
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && validJobID(e.Name()) {
			if _, err := os.Stat(filepath.Join(JobsDir(storeDir), e.Name(), specFile)); err == nil {
				ids = append(ids, e.Name())
			}
		}
	}
	sort.Strings(ids)
	return ids
}

func writeFailure(storeDir, id string, rec FailureRecord) error {
	data, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	path := filepath.Join(jobDir(storeDir, id), failuresDir, store.HashKey(rec.Key)+".json")
	return store.AtomicWrite(path, data)
}

func readFailures(storeDir, id string) map[string]FailureRecord {
	out := map[string]FailureRecord{}
	dir := filepath.Join(jobDir(storeDir, id), failuresDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var rec FailureRecord
		if json.Unmarshal(data, &rec) == nil {
			out[store.HashKey(rec.Key)] = rec
		}
	}
	return out
}

// jobPlan is a process-local cache of one job's declared cell list
// (and the runner that executes those cells). Plans are derived state:
// every process rebuilds them from the durable spec, and cell IDs
// guarantee all rebuilds agree.
type jobPlan struct {
	spec   *experiments.Sweep
	runner *experiments.Runner
	exps   []experiments.Experiment
	cells  []experiments.DeclaredCell
}

// planner caches jobPlans by job ID and configures their runners
// uniformly (store + supervision bounds).
type planner struct {
	store       *store.Store
	cellTimeout time.Duration
	retries     int

	mu    sync.Mutex
	plans map[string]*jobPlan
}

func newPlanner(st *store.Store, cellTimeout time.Duration, retries int) *planner {
	return &planner{store: st, cellTimeout: cellTimeout, retries: retries, plans: map[string]*jobPlan{}}
}

// plan returns the cached plan for id, building it from the durable
// spec on first use.
func (p *planner) plan(id string) (*jobPlan, error) {
	p.mu.Lock()
	if pl, ok := p.plans[id]; ok {
		p.mu.Unlock()
		return pl, nil
	}
	p.mu.Unlock()

	sp, err := ReadSpec(p.store.Dir(), id)
	if err != nil {
		return nil, err
	}
	r, exps, err := p.newRunner(sp)
	if err != nil {
		return nil, err
	}
	cells, err := r.DeclareCells(exps)
	if err != nil {
		return nil, err
	}
	pl := &jobPlan{spec: sp, runner: r, exps: exps, cells: cells}
	p.mu.Lock()
	if prior, ok := p.plans[id]; ok {
		pl = prior // lost a benign race; keep one canonical plan
	} else {
		p.plans[id] = pl
	}
	p.mu.Unlock()
	return pl, nil
}

// newRunner builds the runner sp describes with the planner's store and
// supervision bounds: the one place a job's runner is made.
func (p *planner) newRunner(sp *experiments.Sweep) (*experiments.Runner, []experiments.Experiment, error) {
	r, exps, err := sp.NewRunner()
	if err != nil {
		return nil, nil, err
	}
	r.Store = p.store
	r.CellTimeout = p.cellTimeout
	r.Retries = p.retries
	return r, exps, nil
}

// Cell states as reported by JobStatus.
const (
	CellPending     = "pending"
	CellLeased      = "leased"
	CellCommitted   = "committed"
	CellQuarantined = "quarantined"
	CellFailed      = "failed"
)

// CellStatus is the observable state of one cell of a job.
type CellStatus struct {
	Hash  string `json:"hash"` // content address (store.HashKey of the cell key, claim name)
	Label string `json:"label"`
	State string `json:"state"`
	Owner string `json:"owner,omitempty"` // holding process ("<pid>-<start>"), when leased
}

// JobStatus is the poll/stream payload for one job.
type JobStatus struct {
	ID    string             `json:"id"`
	State string             `json:"state"` // running, done, or failed
	Spec  *experiments.Sweep `json:"spec,omitempty"`

	Total       int `json:"total_cells"`
	Committed   int `json:"committed"`
	Quarantined int `json:"quarantined"`
	Failed      int `json:"failed"`
	Leased      int `json:"leased"`
	Pending     int `json:"pending"`

	Cells []CellStatus `json:"cells,omitempty"` // per-cell detail, on request
	Error string       `json:"error,omitempty"` // terminal failure, when failed
}

// Job terminal states.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// status computes a job's observable state entirely from durable
// files (cells, claims, failure records, terminal markers) — no
// process memory is consulted, so any process computes the same
// answer, including one that just restarted.
func (p *planner) status(id string, withCells bool) (*JobStatus, error) {
	pl, err := p.plan(id)
	if err != nil {
		return nil, err
	}
	dir := jobDir(p.store.Dir(), id)
	st := &JobStatus{ID: id, State: JobRunning, Spec: pl.spec, Total: len(pl.cells)}

	if data, err := os.ReadFile(filepath.Join(dir, failedFile)); err == nil {
		st.State = JobFailed
		var rep FailedReport
		if json.Unmarshal(data, &rep) == nil {
			st.Error = rep.Error
		}
	} else if _, err := os.Stat(filepath.Join(dir, tablesFile)); err == nil {
		st.State = JobDone
	}

	claims := p.store.Claims()
	failures := readFailures(p.store.Dir(), id)
	for _, c := range pl.cells {
		cs := CellStatus{Hash: store.HashKey(c.Key), Label: c.Label, State: CellPending}
		switch {
		case p.store.Committed(c.Key):
			cs.State = CellCommitted
			st.Committed++
		default:
			if _, q := p.store.Quarantined(c.Key); q {
				cs.State = CellQuarantined
				st.Quarantined++
			} else if _, f := failures[cs.Hash]; f {
				cs.State = CellFailed
				st.Failed++
			} else if owner, l := claims[cs.Hash]; l {
				cs.State = CellLeased
				cs.Owner = owner
				st.Leased++
			} else {
				st.Pending++
			}
		}
		if withCells {
			st.Cells = append(st.Cells, cs)
		}
	}
	return st, nil
}

// assemble renders the job's tables from the (now fully committed)
// cell set, byte-identically to sdsp-exp: each experiment's tables in
// order, each rendered by Table.Render. Every planned cell is committed
// or quarantined by now, so RunExperiments serves each from the store.
// A cell the declaration did not list fails assembly: there is no local
// fallback that simulates it.
func (pl *jobPlan) assemble(p *planner) ([]byte, error) {
	r, exps, err := p.newRunner(pl.spec)
	if err != nil {
		return nil, err
	}
	tables, _, err := r.RunExperiments(exps, 1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, t := range ts {
			if err := t.Render(&buf); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}
