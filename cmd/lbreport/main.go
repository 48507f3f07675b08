// Command lbreport regenerates the experiment suite and writes it as a
// single Markdown report: Table 1 and the per-theorem experiments E1–E11,
// the EXT extensions, and the ABL ablations. -only runs one of them by ID.
//
// Usage:
//
//	lbreport [-quick] [-workers n] [-seed s] [-only E3] [-o report.md]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detlb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lbreport", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use small instances (CI-sized)")
	workers := fs.Int("workers", 0, "engine worker goroutines (0 = serial)")
	seed := fs.Int64("seed", 1, "seed for randomized components")
	only := fs.String("only", "", "run one experiment by ID, e.g. E3 (an unknown ID lists them)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := analysis.Config{Quick: *quick, Workers: *workers, Seed: *seed}
	var tables []*analysis.Table
	if *only != "" {
		t, err := analysis.Experiment(*only, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbreport:", err)
			return 2
		}
		tables = []*analysis.Table{t}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbreport:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if tables == nil {
		tables = analysis.AllExperiments(cfg)
	}
	title := "detlb experiment report (full size)"
	if cfg.Quick {
		title = "detlb experiment report (quick size)"
	}
	if err := analysis.WriteReport(w, title, tables); err != nil {
		fmt.Fprintln(os.Stderr, "lbreport:", err)
		return 1
	}
	return 0
}
