// sdsp-report runs every experiment and writes a single self-contained
// Markdown report (tables included), suitable for checking results into
// a repository or attaching to a writeup.
//
// Usage:
//
//	sdsp-report -o results.md            # paper scale (several minutes)
//	sdsp-report -scale small -o fast.md
//	sdsp-report -j 8 -o results.md       # parallel cell simulation
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	var (
		out      = flag.String("o", "results.md", "output Markdown file")
		scale    = flag.String("scale", "paper", "problem scale: paper or small")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max cells simulated in parallel (1 = sequential)")
		crashDir = flag.String("crashdir", "", "write a crash-report bundle here when a cell fails with a machine error")
	)
	var sup cliflags.Supervision
	sup.Register(nil)
	flag.Parse()

	sw := experiments.Sweep{Experiments: []string{"all"}, Scale: *scale}
	runner, exps, err := sw.NewRunner()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-report: %v\n", err)
		os.Exit(2)
	}
	runner.CrashDir = *crashDir
	runner.Progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if err := sup.Apply(runner, *jobs, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sdsp-report: "+format+"\n", args...)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-report: %v\n", err)
		os.Exit(2)
	}
	defer sup.Close()

	var sb strings.Builder
	fmt.Fprintf(&sb, "# SDSP-MT experiment report\n\n")
	fmt.Fprintf(&sb, "Scale: %s. Generated by `sdsp-report`; every cell is a fresh,\n", *scale)
	fmt.Fprintf(&sb, "golden-validated simulation (deterministic run to run).\n\n")

	start := time.Now()
	all, _, err := runner.RunExperiments(exps, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-report: %v\n", err)
		os.Exit(1)
	}
	for i, e := range exps {
		fmt.Fprintf(&sb, "## %s — %s\n\n", e.Name, e.Title)
		for _, t := range all[i] {
			writeMarkdownTable(&sb, t)
		}
	}
	fmt.Fprintf(&sb, "---\nGenerated in %s.\n", time.Since(start).Round(time.Second))

	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sdsp-report:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d experiments)\n", *out, len(exps))
}

func writeMarkdownTable(sb *strings.Builder, t experiments.Table) {
	fmt.Fprintf(sb, "**%s**\n\n", t.Title)
	fmt.Fprintf(sb, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(sb, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(sb, "| %s |\n", strings.Join(row, " | "))
	}
	sb.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(sb, "> %s\n\n", n)
	}
}
