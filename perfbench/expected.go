package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/kernels"
)

// expected holds the simulated outputs the benchmark checks every run
// against. They are facts of the simulated machine, identical on every
// host, so a change that only makes the simulator faster must leave them
// untouched. After an intentional change to a kernel, the core or an
// experiment, regenerate them with --record (see README.md).
type expected struct {
	// ThreadsPaper and ThreadsSmall are the fig5/fig6 cells in
	// threadCells order, at Paper and Small scale.
	ThreadsPaper []expectedCell `json:"threads_paper"`
	ThreadsSmall []expectedCell `json:"threads_small"`
	// SmallSweepSHA256 is the sha256 of the rendered tables of the small
	// registry sweep (small-cold and small-warm); PaperSweepSHA256 that of
	// fig5 and fig6 at Paper scale.
	SmallSweepSHA256 string `json:"small_sweep_sha256"`
	PaperSweepSHA256 string `json:"paper_sweep_sha256"`
}

type expectedCell struct {
	Cell      string `json:"cell"`
	SimCycles uint64 `json:"sim_cycles"`
	Committed uint64 `json:"committed"`
}

//go:embed expected.json
var expectedJSON []byte

var want = func() expected {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err))
	}
	return e
}()

// matchesExpected reports whether st is the recorded outcome of cell i of
// threadCells at scale.
func matchesExpected(scale kernels.Scale, i int, st *core.Stats) bool {
	cells := want.ThreadsSmall
	if scale == kernels.Paper {
		cells = want.ThreadsPaper
	}
	return i < len(cells) && cells[i].SimCycles == st.Cycles && cells[i].Committed == st.Committed
}

// record runs every checked computation once and writes its outputs as
// the new expected.json at path.
func record(path string, jobs int, work string) error {
	var e expected
	for _, sc := range []struct {
		scale kernels.Scale
		dst   *[]expectedCell
	}{{kernels.Paper, &e.ThreadsPaper}, {kernels.Small, &e.ThreadsSmall}} {
		for _, c := range threadCells() {
			st, err := runDirect(c, sc.scale, nil, nil, -1, -1)
			if err != nil {
				return err
			}
			*sc.dst = append(*sc.dst, expectedCell{c.String(), st.Cycles, st.Committed})
		}
	}
	for _, s := range []struct {
		sw  sweep
		dst *string
	}{{smallSweep(jobs), &e.SmallSweepSHA256}, {paperSweep(jobs), &e.PaperSweepSHA256}} {
		dir, err := os.MkdirTemp(work, "record-")
		if err != nil {
			return err
		}
		res, err := s.sw.run(dir, nil, -1)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for _, c := range res.cells {
			if c.Err != "" {
				return fmt.Errorf("cell %s: %s", c.Label, c.Err)
			}
		}
		*s.dst = res.tablesSHA
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
