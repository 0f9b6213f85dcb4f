// Package serve is the sdsp-serve daemon plane: a coordinator that
// accepts sweep jobs over HTTP and supervises their execution, and
// workers that claim individual cells through store leases and
// simulate them. All durable state — job specs, committed cells,
// leases, failure records, assembled tables — lives in the cell store
// directory, never in process memory, which is what makes every
// process in the fleet (coordinator included) safe to SIGKILL: a
// restart rescans the store and resumes exactly where the dead
// process stopped, recomputing nothing that was committed.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/store"
	"repro/sdsp"
)

// JobSpec declares one sweep: which experiments, at which scale, with
// which frontend overrides. It deliberately mirrors the sdsp-exp
// flags — a job is nothing more than a durable, addressable sdsp-exp
// invocation — and it is small enough that every worker rebuilds the
// full runner configuration from it instead of receiving serialized
// work items: canonical cache keys make independently declared cell
// lists identical across the fleet.
type JobSpec struct {
	Experiments []string `json:"experiments"`        // registry names, in output order; ["all"] expands
	Scale       string   `json:"scale"`              // "paper" or "small"
	Bpred       string   `json:"bpred,omitempty"`    // branch predictor override ("" = paper 2-bit)
	Fetch       string   `json:"fetch,omitempty"`    // fetch-policy override ("" = per-experiment)
	Fault       string   `json:"fault,omitempty"`    // deterministic fault schedule ("" = none)
	Paranoid    bool     `json:"paranoid,omitempty"` // per-cycle invariant checking in every cell
}

// Normalize validates the spec and rewrites it to canonical form
// (["all"] expanded, names trimmed) so that equivalent submissions
// hash to the same job ID.
func (sp *JobSpec) Normalize() error {
	switch sp.Scale {
	case "paper", "small":
	case "":
		sp.Scale = "paper"
	default:
		return fmt.Errorf("unknown scale %q (want paper or small)", sp.Scale)
	}
	if len(sp.Experiments) == 0 {
		return errors.New("spec names no experiments")
	}
	if len(sp.Experiments) == 1 && strings.TrimSpace(sp.Experiments[0]) == "all" {
		sp.Experiments = nil
		for _, e := range experiments.Registry() {
			sp.Experiments = append(sp.Experiments, e.Name)
		}
	} else {
		seen := map[string]bool{}
		for i, name := range sp.Experiments {
			name = strings.TrimSpace(name)
			if _, err := experiments.Get(name); err != nil {
				return err
			}
			if seen[name] {
				return fmt.Errorf("experiment %q listed twice", name)
			}
			seen[name] = true
			sp.Experiments[i] = name
		}
	}
	if _, err := sdsp.ParsePredictor(sp.bpredOrDefault()); err != nil {
		return err
	}
	if sp.Fetch != "" {
		if _, err := sdsp.ParseFetchPolicy(sp.Fetch); err != nil {
			return err
		}
	}
	if _, err := sdsp.ParseFaultSpec(sp.Fault); err != nil {
		return err
	}
	return nil
}

func (sp *JobSpec) bpredOrDefault() string {
	if sp.Bpred == "" {
		return "2bit"
	}
	return sp.Bpred
}

// ID is the job's content address: "j" + the first 12 hex digits of
// the SHA-256 of the canonical spec JSON. Resubmitting an identical
// spec is therefore idempotent — it lands on the same durable job.
func (sp *JobSpec) ID() string {
	data, _ := json.Marshal(sp)
	h := sha256.Sum256(data)
	return "j" + hex.EncodeToString(h[:])[:12]
}

// NewRunner builds the runner + experiment list the spec describes.
// Callers attach their own store and supervision bounds; Normalize
// must have succeeded, so the parses here cannot fail.
func (sp *JobSpec) NewRunner() (*experiments.Runner, []experiments.Experiment, error) {
	sc := kernels.Paper
	if sp.Scale == "small" {
		sc = kernels.Small
	}
	r := experiments.NewRunner(sc)
	r.Paranoid = sp.Paranoid
	pred, err := sdsp.ParsePredictor(sp.bpredOrDefault())
	if err != nil {
		return nil, nil, err
	}
	r.Predictor = pred
	if sp.Fetch != "" {
		pol, err := sdsp.ParseFetchPolicy(sp.Fetch)
		if err != nil {
			return nil, nil, err
		}
		r.FetchOverride, r.HasFetch = pol, true
	}
	inj, err := sdsp.ParseFaultSpec(sp.Fault)
	if err != nil {
		return nil, nil, err
	}
	r.Injector = inj
	var exps []experiments.Experiment
	for _, name := range sp.Experiments {
		e, err := experiments.Get(name)
		if err != nil {
			return nil, nil, err
		}
		exps = append(exps, e)
	}
	return r, exps, nil
}

// Durable job layout, under <store>/jobs/<id>/:
//
//	spec.json            the canonical JobSpec (atomic; presence = job exists)
//	failures/<hash>.json one FailureRecord per terminally failed cell
//	tables.txt           the assembled sweep output (atomic; presence = done)
//	failed.json          terminal failure report (atomic; presence = failed)
//
// Every transition is one atomic file creation, so a SIGKILL between
// any two steps leaves a state the scanner fully understands.
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

// WriteSpec durably creates the job (idempotent: an existing spec is
// left untouched — it is content-addressed, so it must be identical).
func WriteSpec(storeDir string, sp *JobSpec) (string, error) {
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
	return id, atomicWriteFile(path, append(data, '\n'))
}

// ReadSpec loads a job's spec, reporting os.ErrNotExist for an
// unknown job.
func ReadSpec(storeDir, id string) (*JobSpec, error) {
	if !validJobID(id) {
		return nil, fmt.Errorf("malformed job id %q: %w", id, os.ErrNotExist)
	}
	data, err := os.ReadFile(filepath.Join(jobDir(storeDir, id), specFile))
	if err != nil {
		return nil, err
	}
	sp := &JobSpec{}
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
	return atomicWriteFile(path, data)
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

// atomicWriteFile commits a jobs-plane file atomically: temp file in
// the target directory, fsync, rename. A killed writer
// leaves only an inert temp file (swept by the store's opener).
func atomicWriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// jobPlan is a process-local cache of one job's declared cell list
// (and the runner whose closures execute those cells). Plans are
// derived state: every process rebuilds them from the durable spec,
// and canonical cache keys guarantee all rebuilds agree.
type jobPlan struct {
	spec   *JobSpec
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
	r, exps, err := sp.NewRunner()
	if err != nil {
		return nil, err
	}
	r.Store = p.store
	r.CellTimeout = p.cellTimeout
	r.Retries = p.retries
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
	Hash  string `json:"hash"` // content address (store.HashKey of the cell key, lease name)
	Label string `json:"label"`
	State string `json:"state"`
	Owner string `json:"owner,omitempty"` // lease holder, when leased
}

// JobStatus is the poll/stream payload for one job.
type JobStatus struct {
	ID    string   `json:"id"`
	State string   `json:"state"` // running, done, or failed
	Spec  *JobSpec `json:"spec,omitempty"`

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
// files (cells, leases, failure records, terminal markers) — no
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

	leased := map[string]string{}
	for _, l := range p.store.Leases() {
		if !l.Expired {
			leased[l.Key] = l.Owner
		}
	}
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
			} else if owner, l := leased[c.Key]; l {
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
// order, each rendered by Table.Render. All cells are store hits; a
// missing cell would be simulated locally — a correctness-preserving
// fallback, never the plan.
func (pl *jobPlan) assemble(p *planner) ([]byte, error) {
	r, exps, err := pl.spec.NewRunner()
	if err != nil {
		return nil, err
	}
	r.Store = p.store
	r.CellTimeout = p.cellTimeout
	r.Retries = p.retries
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
