package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
)

// Sweep declares one sweep: which experiments, at which scale, with
// which overrides of what every cell simulates. It is the one
// description of a sweep: sdsp-exp's and sdsp-report's flags and an
// sdsp-serve job each build one, NewRunner is the only code that turns
// its values into runner settings, and so a runner's cells depend on
// nothing else. Host settings (store, timeout, retries, crash
// directory, progress) are not part of it: they change how a sweep
// runs, never what its cells simulate.
//
// A Sweep is small enough that every sdsp-serve worker rebuilds the
// full runner configuration from a job's Sweep instead of receiving
// serialized work items: cell IDs derived from what each cell
// simulates make independently declared cell lists identical across
// the fleet.
type Sweep struct {
	Experiments []string `json:"experiments"`        // registry names, in output order; ["all"] expands
	Scale       string   `json:"scale"`              // "paper" or "small"
	Bpred       string   `json:"bpred,omitempty"`    // branch predictor override ("" = paper 2-bit)
	Fetch       string   `json:"fetch,omitempty"`    // fetch-policy override ("" = per-experiment)
	Fault       string   `json:"fault,omitempty"`    // deterministic fault schedule ("" = none)
	Paranoid    bool     `json:"paranoid,omitempty"` // per-cycle invariant checking in every cell
}

// Normalize validates the sweep and rewrites it to canonical form
// (scale defaulted, ["all"] expanded, names in the registry's spelling)
// so that equivalent sweeps hash to the same ID.
func (sw *Sweep) Normalize() error {
	_, exps, err := sw.NewRunner()
	if err != nil {
		return err
	}
	if sw.Scale == "" {
		sw.Scale = "paper"
	}
	sw.Experiments = make([]string, len(exps))
	for i, e := range exps {
		sw.Experiments[i] = e.Name
	}
	return nil
}

// ID is the sweep's content address: "j" + the first 12 hex digits of
// the SHA-256 of its JSON. Call it on a normalized sweep; sdsp-serve
// names a job by it, so resubmitting an identical sweep lands on the
// same durable job.
func (sw *Sweep) ID() string {
	data, _ := json.Marshal(sw)
	h := sha256.Sum256(data)
	return "j" + hex.EncodeToString(h[:])[:12]
}

// NewRunner validates the sweep and builds the runner and experiment
// list it describes, leaving sw as it is (a job's sweep is read by
// concurrent status requests). Callers attach only host settings.
func (sw *Sweep) NewRunner() (*Runner, []Experiment, error) {
	sc := kernels.Paper
	switch sw.Scale {
	case "", "paper":
	case "small":
		sc = kernels.Small
	default:
		return nil, nil, fmt.Errorf("unknown scale %q (want paper or small)", sw.Scale)
	}
	var exps []Experiment
	if len(sw.Experiments) == 1 && strings.TrimSpace(sw.Experiments[0]) == "all" {
		exps = Registry()
	} else {
		seen := map[string]bool{}
		for _, name := range sw.Experiments {
			e, err := Get(strings.TrimSpace(name))
			if err != nil {
				return nil, nil, err
			}
			if seen[e.Name] {
				return nil, nil, fmt.Errorf("experiment %q listed twice", e.Name)
			}
			seen[e.Name] = true
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return nil, nil, errors.New("sweep names no experiments")
	}

	r := NewRunner(sc)
	r.paranoid = sw.Paranoid
	var err error
	if sw.Bpred != "" {
		if r.predictor, err = core.ParsePredictor(sw.Bpred); err != nil {
			return nil, nil, err
		}
	}
	if sw.Fetch != "" {
		if r.fetchOverride, err = core.ParseFetchPolicy(sw.Fetch); err != nil {
			return nil, nil, err
		}
		r.hasFetch = true
	}
	inj, err := fault.ParseSpec(sw.Fault)
	if err != nil {
		return nil, nil, err
	}
	if inj != nil { // a typed-nil injector would look non-nil to runCell
		r.injector = inj
	}
	return r, exps, nil
}
