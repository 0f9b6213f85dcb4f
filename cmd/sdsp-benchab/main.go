// sdsp-benchab compares the repository benchmark (BENCHMARK.json) of a
// base revision against the working tree in alternating pairs of runs,
// and judges every end-to-end metric by the paired rule.
//
// Usage, from the repository root (or through make bench-ab):
//
//	sdsp-benchab -base HEAD~1                          # every workload, 10 pairs
//	sdsp-benchab -base main -workload paper-threads -pairs 5
//
// The base side is the committed files of -base, unpacked with git
// archive under .bench_build/ab/ (nothing is registered in .git, so an
// interrupted run leaves nothing to prune). The change side is the
// working tree as it stands. Both sides run BENCHMARK.json's command
// in their own root with their own build directory, for its
// run_seconds, untraced. Pair i runs the base first when i is even and
// the change first when it is odd.
//
// For each workload and end-to-end metric the report gives each side's
// median with its quartiles, the ratio of medians (change ÷ base), the
// pairs the change won, and whether the paired rule holds: the change
// reads better in at least 9 of every 10 pairs, and its median is
// better than the base median by more than the base's interquartile
// range. A metric whose base interquartile range is wider than its
// bound (as a share of the base median) is unresolved: the runs cannot
// tell a change inside the bound from one beyond it, unless every
// change run reads better than every base run or the paired rule
// holds. The exit status is 1 when a change median is worse than the
// base median by more than the metric's bound, when a metric is
// unresolved, or when any run reads correct false or failed cells; 2
// on a usage or setup error, or when a run's result line lacks an
// end-to-end metric. Every run's result line is kept in
// .bench_build/ab/runs-<base>.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: which way is better, and the share
// of the base value the change may lose.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is a benchmark run's final stdout line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one side's run within a pair.
type run struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Result   result `json:"result"`
}

func main() {
	base := flag.String("base", "", "git revision to compare the working tree against (required)")
	workloads := flag.String("workload", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "alternating pairs of runs per workload")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sdsp-benchab: %v\n", err)
		os.Exit(2)
	}
	if *base == "" || *pairs < 1 || flag.NArg() > 0 {
		fail(errors.New("usage: sdsp-benchab -base <rev> [-workload a,b] [-pairs N]"))
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	names, err := pickWorkloads(sp, *workloads)
	if err != nil {
		fail(err)
	}
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	sha, err := git("rev-parse", "--verify", *base+"^{commit}")
	if err != nil {
		fail(fmt.Errorf("-base %q: %v", *base, err))
	}
	abDir := filepath.Join(root, ".bench_build", "ab")
	baseRoot, err := unpack(sha, filepath.Join(abDir, "base-"+sha[:12]))
	if err != nil {
		fail(err)
	}
	sides := []struct{ name, root, out string }{
		{"base", baseRoot, filepath.Join(abDir, "out-base")},
		{"change", root, filepath.Join(abDir, "out-change")},
	}
	fmt.Fprintf(os.Stderr, "sdsp-benchab: base %s (%s) vs working tree, %d pairs of %gs runs per workload\n",
		*base, sha[:12], *pairs, sp.RunSeconds)

	var runs []run
	logPath := filepath.Join(abDir, "runs-"+sha[:12]+".json")
	for _, w := range names {
		for i := 0; i < *pairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				s := sides[k]
				res, err := bench(sp, s.root, s.out, w)
				if err != nil {
					fail(fmt.Errorf("%s %s pair %d: %v", w, s.name, i+1, err))
				}
				runs = append(runs, run{w, i, s.name, res})
				fmt.Fprintf(os.Stderr, "  %s pair %d/%d %-6s %s\n", w, i+1, *pairs, s.name, brief(sp.EndToEnd, res))
			}
			if err := writeRuns(logPath, runs); err != nil {
				fail(err)
			}
		}
	}
	ok := report(os.Stdout, sp.EndToEnd, names, runs)
	fmt.Fprintf(os.Stderr, "sdsp-benchab: every run's result is in %s\n", logPath)
	if !ok {
		os.Exit(1)
	}
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (run from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: needs command, run_seconds and end_to_end", path)
	}
	return &sp, nil
}

// pickWorkloads returns the requested workloads, in BENCHMARK.json's
// order, or all of them when list is empty.
func pickWorkloads(sp *spec, list string) ([]string, error) {
	var names []string
	want := map[string]bool{}
	for _, w := range strings.Split(list, ",") {
		if w = strings.TrimSpace(w); w != "" {
			want[w] = true
		}
	}
	all := len(want) == 0
	for _, w := range sp.Workloads {
		if all || want[w.Name] {
			names = append(names, w.Name)
			delete(want, w.Name)
		}
	}
	for w := range want {
		return nil, fmt.Errorf("-workload %q is not in BENCHMARK.json", w)
	}
	return names, nil
}

func git(args ...string) (string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// unpack extracts the committed files of sha into dir, once: a
// complete extraction is marked by a file the next call finds.
func unpack(sha, dir string) (string, error) {
	done := filepath.Join(dir, ".unpacked")
	if _, err := os.Stat(done); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", sha)
	extract := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	extract.Stdin = pipe
	var archiveErr, extractErr bytes.Buffer
	archive.Stderr, extract.Stderr = &archiveErr, &extractErr
	if err := extract.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %v: %s", sha[:12], err, archiveErr.String())
	}
	if err := extract.Wait(); err != nil {
		return "", fmt.Errorf("unpack %s: %v: %s", sha[:12], err, extractErr.String())
	}
	return dir, os.WriteFile(done, nil, 0o644)
}

// bench runs the benchmark command once in root for its run_seconds,
// building into out, and returns its result line. Its stderr (the
// per-pass wall times) is kept in out/last-<workload>.log.
func bench(sp *spec, root, out, workload string) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	args := append(append([]string{}, sp.Command[1:]...), "--workload", workload, "--seed", "1",
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+out)
	logf, err := os.Create(filepath.Join(out, "last-"+workload+".log"))
	if err != nil {
		return result{}, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v (stderr in %s)", err, logf.Name())
	}
	return lastResult(bytes.NewReader(stdout), sp.EndToEnd)
}

// lastResult parses the final non-empty line of a run's stdout, which
// must hold every metric of ms.
func lastResult(r io.Reader, ms []metric) (result, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return result{}, fmt.Errorf("no result line in the benchmark's output (last line %q)", last)
	}
	for _, m := range ms {
		if _, ok := res.Metrics[m.Name]; !ok {
			return result{}, fmt.Errorf("the result line has no %s, an end-to-end metric of BENCHMARK.json", m.Name)
		}
	}
	return res, nil
}

func brief(ms []metric, res result) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, " %s=%.4g", m.Name, res.Metrics[m.Name].Value)
	}
	fmt.Fprintf(&b, " failed=%d", res.Failed)
	return strings.TrimSpace(b.String())
}

func writeRuns(path string, runs []run) error {
	b, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is one metric of one workload over all pairs.
type summary struct {
	base, change quartiles
	ratio        float64 // change median ÷ base median
	won, pairs   int     // pairs in which the change read better
	rule         bool    // the paired rule holds
	outOfBound   bool    // the change median is worse than the bound allows
	spread       float64 // base interquartile range ÷ base median
	unresolved   bool    // spread exceeds the bound, and neither the rule nor outOfBound decides
}

type quartiles struct{ q1, med, q3 float64 }

// summarize judges metric m over paired values: base[i] and change[i]
// come from pair i.
func summarize(m metric, base, change []float64) summary {
	s := summary{base: quartilesOf(base), change: quartilesOf(change), pairs: len(base)}
	lower := m.Better == "lower"
	better := func(c, b float64) bool {
		if lower {
			return c < b
		}
		return c > b
	}
	for i := range base {
		if better(change[i], base[i]) {
			s.won++
		}
	}
	allBetter := true // every change run reads better than every base run
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if s.base.med != 0 {
		s.ratio = s.change.med / s.base.med
		s.spread = (s.base.q3 - s.base.q1) / s.base.med
	}
	gain := s.change.med - s.base.med
	if lower {
		gain = -gain
	}
	s.rule = 10*s.won >= 9*s.pairs && gain > s.base.q3-s.base.q1
	if lower {
		s.outOfBound = s.change.med > s.base.med*(1+m.Bound)
	} else {
		s.outOfBound = s.change.med < s.base.med*(1-m.Bound)
	}
	s.unresolved = !s.rule && !s.outOfBound && !allBetter && s.spread > m.Bound
	return s
}

// quartilesOf returns the quartiles of xs, interpolating linearly
// between order statistics.
func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{at(0.25), at(0.5), at(0.75)}
}

// report prints the ledger table and reports whether every metric is
// resolved and within its bound and every run was correct.
func report(w io.Writer, ms []metric, workloads []string, runs []run) bool {
	ok := true
	fmt.Fprintln(w, "| Workload, metric | Base, median [q1, q3] | Change, median [q1, q3] | Ratio | Change better | Paired rule |")
	fmt.Fprintln(w, "| --- | --- | --- | --- | --- | --- |")
	for _, wl := range workloads {
		var base, change []result
		for _, r := range runs {
			if r.Workload != wl {
				continue
			}
			if r.Side == "base" {
				base = append(base, r.Result)
			} else {
				change = append(change, r.Result)
			}
		}
		for _, m := range ms {
			s := summarize(m, values(base, m.Name), values(change, m.Name))
			verdict := "no"
			switch {
			case s.outOfBound:
				verdict = fmt.Sprintf("no; worse than the %.0f%% bound", 100*m.Bound)
				ok = false
			case s.rule:
				verdict = "holds"
			case s.unresolved:
				verdict = fmt.Sprintf("unresolved: base spread %.0f%% > %.0f%% bound", 100*s.spread, 100*m.Bound)
				ok = false
			}
			fmt.Fprintf(w, "| `%s` `%s` | %s | %s | %.3f | %d/%d | %s |\n", wl, m.Name,
				s.base.format(m.Unit), s.change.format(m.Unit), s.ratio, s.won, s.pairs, verdict)
		}
		for _, side := range []struct {
			name string
			rs   []result
		}{{"base", base}, {"change", change}} {
			for i, r := range side.rs {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(w, "\n%s %s pair %d: correct %v, %d of %d cells failed\n",
						wl, side.name, i+1, r.Correct, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
	}
	return ok
}

func values(rs []result, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func (q quartiles) format(unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q.med, q.q1, q.q3, unit)
}
