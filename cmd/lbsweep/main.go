// Command lbsweep runs a scenario sweep: the cross product of graph ×
// algorithm × workload × schedule × topology specs, fanned out over the
// concurrent sweep harness (engines reused per (graph, algorithm) group,
// spectral gaps memoized per graph). Its one per-cell record is the
// archive's: -json writes the result document lbserve archives for the same
// family, byte for byte; -csv writes that document's full index projection
// (one row per cell, the lbquery column names); and stdout summarizes it as
// a grouped index query — one row per (graph, self-loops, algorithm) group of
// successful cells.
//
// Usage:
//
//	lbsweep -graphs "random:256,8,1;cycle:128" \
//	        -algos "send-floor;rotor-router;good:2" \
//	        -workloads "point:2048;bimodal:0,64" \
//	        [-schedules "none;burst:40,0,2048;refill:40,1024,40"] \
//	        [-topologies "none;partition:30,64,70;periodic-fault:15,5"] \
//	        [-target -1] [-rounds 0] [-loops -1] [-patience 0] [-sample 0] \
//	        [-workers 0] [-sweep-workers 0] [-progress] \
//	        [-scenario family.json] [-emit-scenario family.json] \
//	        [-preset shock-recovery] [-list-presets] \
//	        [-csv cells.csv] [-json result.json] [-series DIR]
//
// Spec lists are semicolon-separated; the mini-language is lbsim's (the
// grammar lives in internal/scenario, shared by the flags and the JSON
// scenario files). Population-protocol models (majority[:SEED] |
// herman[:SEED], with the opinions/tokens workloads) sweep on the same
// grammar; their cells carry a metric column naming the model's convergence
// metric in place of the diffusion discrepancy. -rounds 0 uses the paper's horizon T = ⌈16·ln(nK)/µ⌉
// per instance; -loops -1 uses d° = d. -sweep-workers bounds the concurrent
// (graph, algorithm) groups; results are bit-identical for every value.
// -series writes one JSONL trajectory file per sampled spec via
// internal/trace (dynamic runs carry shock markers).
//
// -scenario loads the whole family from a scenario JSON file and -preset
// runs a named preset (-list-presets shows the catalog); either replaces the
// spec-list and run flags entirely. -emit-scenario snapshots the resolved
// family — every default and seed materialized — so any flag combination can
// be saved, diffed, and re-run bit-identically (see docs/scenarios.md).
//
// -schedules makes runs dynamic: each schedule injects load between rounds
// (burst:ROUND,NODE,AMOUNT | drain:FROM,TO,PERNODE | periodic:EVERY,NODE,AMOUNT |
// churn:EVERY,AMOUNT[,SEED] | refill:ROUND,AMOUNT[,EVERY], composable with
// "+"; "none" is a static run). -target N ≥ 0 sets the discrepancy target:
// static runs stop when they reach it, dynamic runs use it to measure
// per-shock recovery (the shocks, shocks_recovered and shock_recovery_*
// columns).
//
// -topologies injects deterministic faults between rounds
// (faillink:ROUND,U,V | restorelink:ROUND,U,V | failnode:ROUND,NODE[,REDIST] |
// restorenode:ROUND,NODE | flap:U,V,FROM,PERIOD[,DUTY] |
// partition:ROUND,BOUNDARY[,HEAL] | periodic-fault:EVERY,DOWN[,SEED],
// composable with "+"; "none" keeps the graph pristine). Faulted runs report
// per-fault recovery to the target on the effective (per-component)
// discrepancy (the faults, faults_recovered and fault_recovery_* columns);
// see docs/topology.md.
//
// The JSON document and the CSV are pure functions of the family. Wall-clock
// time and runs/sec appear only in the stdout summary's title.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lbsweep", flag.ContinueOnError)
	graphsFlag := fs.String("graphs", "random:256,8,1;random:256,8,2", "semicolon-separated graph specs")
	algosFlag := fs.String("algos", "send-floor;rotor-router", "semicolon-separated algorithm specs")
	workloadsFlag := fs.String("workloads", "point:2048", "semicolon-separated workload specs")
	schedulesFlag := fs.String("schedules", "none", "semicolon-separated dynamic-workload schedule specs (none = static)")
	topologiesFlag := fs.String("topologies", "none", "semicolon-separated fault-injection topology specs (none = pristine)")
	target := fs.Int64("target", -1, "discrepancy target (-1 = none; ≥ 0 stops static runs and defines dynamic recovery)")
	rounds := fs.Int("rounds", 0, "round cap per run (0 = paper horizon T)")
	loops := fs.Int("loops", -1, "self-loops per node (-1 = d, the lazy default)")
	patience := fs.Int("patience", 0, "early-stop patience in rounds (0 = none)")
	sample := fs.Int("sample", 0, "record the discrepancy every k rounds (0 = off)")
	workers := fs.Int("workers", 0, "engine worker goroutines per run")
	sweepWorkers := fs.Int("sweep-workers", 0, "concurrent sweep groups (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report sweep progress to stderr as specs finish")
	scenarioPath := fs.String("scenario", "", "load the sweep family from this scenario JSON file (spec-list and run flags are ignored)")
	emitPath := fs.String("emit-scenario", "", "write the resolved family as a scenario JSON file (re-runnable via -scenario)")
	presetName := fs.String("preset", "", "run a named preset family (see -list-presets)")
	listPresets := fs.Bool("list-presets", false, "list the preset catalog and exit")
	csvPath := fs.String("csv", "", "write the per-cell index columns to this CSV file")
	jsonPath := fs.String("json", "", "write the result document (lbserve's archived result.json) to this file")
	seriesDir := fs.String("series", "", "write one JSONL trajectory per sampled spec into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listPresets {
		for _, name := range scenario.PresetNames() {
			fmt.Fprintf(stdout, "%-24s %s\n", name, scenario.PresetDescription(name))
		}
		return 0
	}

	// Resolve the family: a scenario file or preset replaces the spec-list
	// and run flags entirely; otherwise the flags are parsed into the same
	// descriptor layer (one grammar, two front-ends).
	if *scenarioPath != "" && *presetName != "" {
		fmt.Fprintln(os.Stderr, "lbsweep: -scenario and -preset both describe the whole sweep; pass exactly one")
		return 2
	}
	var fam *scenario.Family
	var err error
	switch {
	case *scenarioPath != "":
		fam, err = scenario.LoadFile(*scenarioPath)
	case *presetName != "":
		fam, err = scenario.Preset(*presetName)
	default:
		fam, err = scenario.ParseFamily(*graphsFlag, *algosFlag, *workloadsFlag, *schedulesFlag, *topologiesFlag)
		if err == nil {
			fam.Run = scenario.RunParams{
				Rounds:      *rounds,
				Patience:    *patience,
				Workers:     *workers,
				SampleEvery: *sample,
			}
			if *target >= 0 {
				fam.Run.Target = target
			}
			if *loops >= 0 {
				for i := range fam.Graphs {
					fam.Graphs[i].SelfLoops = loops
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 2
	}
	if *scenarioPath != "" || *presetName != "" {
		// The scenario file or preset is the whole description: explicitly
		// set spec-list/run flags would silently vanish otherwise.
		scenario.WarnOverriddenFlags("lbsweep", fs,
			"graphs", "algos", "workloads", "schedules", "topologies",
			"target", "rounds", "loops", "patience", "sample", "workers")
	}

	// The digest names the result document exactly as lbserve's archive
	// would for this family.
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 2
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 2
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "lbsweep: empty sweep (no graphs, algorithms, or workloads)")
		return 2
	}
	if *emitPath != "" {
		if err := fam.WriteFile(*emitPath); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote scenario to %s\n", *emitPath)
	}

	opts := analysis.SweepOptions{Workers: *sweepWorkers}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rlbsweep: %d/%d specs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// First Ctrl-C cancels the sweep: finished specs keep their results,
	// unstarted ones report the cancellation through their Err, and the spec
	// in flight stops within one round. A second Ctrl-C kills the process
	// outright — the escape hatch must not be swallowed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	watcherDone := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-watcherDone:
			return
		}
		select {
		case <-sigc:
			os.Exit(130)
		case <-watcherDone:
		}
	}()
	// Wall-clock audit (detcheck wallclock is scoped to internal/, so this is
	// by convention, not the linter): elapsed feeds only the summary title.
	// It must never reach the result document or the CSV — those are the
	// deterministic payload that reruns and CI diffs compare byte for byte.
	start := time.Now()
	results := analysis.SweepContext(ctx, specs, opts)
	elapsed := time.Since(start)
	// Restore default SIGINT handling for the output phase and release the
	// watcher (run is called repeatedly from tests; it must not leak it).
	signal.Stop(sigc)
	close(watcherDone)

	cols := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		cols[i] = c.Columns()
	}
	doc, failures, err := archive.BuildResultDoc(fam.Name, digest, cols, specs, results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 1
	}
	// An index fed only by Add: the sweep's one document, queried exactly
	// as lbquery queries the archive.
	ix := archive.NewIndex(nil)
	if err := ix.Add(digest, canonical, doc); err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 1
	}
	tab, err := summary(ix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 1
	}
	tab.Title = fmt.Sprintf("sweep: %d specs in %v (%.1f runs/sec, %d failed)",
		len(specs), elapsed.Round(time.Millisecond), float64(len(specs))/elapsed.Seconds(), failures)
	fmt.Fprint(stdout, tab.String())

	if *csvPath != "" {
		if err := writeCSV(*csvPath, ix); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d rows to %s\n", len(cells), *csvPath)
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, doc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *seriesDir != "" {
		n, err := writeSeries(*seriesDir, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d trajectory files to %s\n", n, *seriesDir)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// summaryAggs are the summary table's aggregate columns: header, aggregate.
// Recovery means are means of the per-cell means.
var summaryAggs = [][2]string{
	{"cells", "count"},
	{"µ", "mean(gap)"},
	{"final_mean", "mean(final_discrepancy)"},
	{"final_min", "min(final_discrepancy)"},
	{"final_max", "max(final_discrepancy)"},
	{"rounds_mean", "mean(rounds)"},
	{"shocks", "sum(shocks)"},
	{"recovered", "sum(shocks_recovered)"},
	{"recov_mean", "mean(shock_recovery_rounds_mean)"},
	{"faults", "sum(faults)"},
	{"frecovered", "sum(faults_recovered)"},
	{"frecov_mean", "mean(fault_recovery_rounds_mean)"},
}

// summary groups the successful cells by (graph, self-loops, algorithm),
// in sorted key order, and renders the aggregates as a table; the caller
// sets the title.
func summary(ix *archive.Index) (*analysis.Table, error) {
	spec := archive.QuerySpec{Where: []string{"error="}, Group: []string{"graph,self_loops,algo"}}
	tab := &analysis.Table{
		Header: []string{"graph", "loops", "algo"},
		Note:   "one row per (graph, loops, algo) group of successful cells; recov/frecov mean is the mean of the cells' mean rounds-to-target after a shock/fault",
	}
	for _, a := range summaryAggs {
		tab.Header = append(tab.Header, a[0])
		spec.Aggs = append(spec.Aggs, a[1])
	}
	q, err := archive.ParseQuerySpec(spec)
	if err != nil {
		return nil, err
	}
	res, err := ix.Query(q)
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = fmt.Sprint(v)
			if x, ok := v.(float64); ok {
				cells[i] = strconv.FormatFloat(x, 'g', 6, 64)
			}
		}
		tab.AddRow(cells...)
	}
	return tab, nil
}

// writeCSV writes the index's full projection: one row per cell, one
// column per queryable index column.
func writeCSV(path string, ix *archive.Index) error {
	res, err := ix.Query(archive.Query{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeries exports every sampled trajectory as trace JSONL, one file per
// spec index (sweep-0007.jsonl, …).
func writeSeries(dir string, results []analysis.RunResult) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	for i, res := range results {
		if len(res.Series) == 0 {
			continue
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sweep-%04d.jsonl", i)))
		if err != nil {
			return written, err
		}
		if err := trace.WriteSamplesJSONL(f, res.Series); err != nil {
			f.Close()
			return written, err
		}
		if err := f.Close(); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}
