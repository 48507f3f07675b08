// Command e2ebench is detlb's end-to-end benchmark. It boots an in-process
// serve.Server behind loopback HTTP, drives one named workload from a plan
// generated from --seed, checks every output, and prints the end-to-end
// metrics; with --trace 1 it also replays the same arrivals through each
// layer's entry points and prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and the layer each one isolates.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash e2ebench/run.sh --workload hit-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds one work directory per run: its archive directories, the
// spans of a traced run and the result file. Runs never delete files: on
// the reference machine a burst of deletions slows file creation — every
// archive write — for the next 15 s or so, which would leak one run's
// clean-up into the next run's figures.
const outDir = ".bench_build/e2ebench"

// runBudget bounds a run's timed phases and replay.
const runBudget = 140 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// env is the machine a result was measured on.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint32 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "generator seed, 0 ≤ seed < 2³²")
	seconds := fs.Int("seconds", 30, "run length the workloads are sized for")
	trace := fs.Int("trace", 0, "1 replays the arrivals through the layers and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed < 0 || *seed > 1<<32-1 {
		return fmt.Errorf("seed %d out of range", *seed)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("trace must be 0 or 1, got %d", *trace)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))
	e := env{
		Workload: *workload, Seed: uint32(*seed), Seconds: *seconds, Trace: *trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc, CPU: cpuModel(),
	}

	p, err := newPlan(e.Workload, e.Seed, e.Seconds)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}

	// Past the deadline the phases stop sending and the replay stops, so
	// even a much slower program ends the run within its time limit.
	deadline := time.Now().Add(runBudget)
	servedDeadline := deadline
	if e.Trace == 1 {
		servedDeadline = time.Now().Add(runBudget / 2)
	}
	sv, dir, err := servePlan(p, work, nproc, servedDeadline)
	if err != nil {
		return err
	}
	if err := checkReads(p, sv, dir); err != nil {
		return err
	}
	c, err := countWork(p, sv.results)
	if err != nil {
		return err
	}
	var metrics map[string]metric
	if e.Trace == 0 {
		checkSample(p, sv)
		metrics = endToEnd(sv)
	} else {
		metrics, err = traced(p, sv, c, work, deadline)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "env: workload=%s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPU)
	fmt.Fprintf(stdout, "output: %s\n", work)
	fmt.Fprintf(stdout, "counters: cells=%d analysis.rounds=%d core.arc_visits=%d spectral.solves=%d archive.bytes_written=%d archive.index_rows=%d hits=%d lbserve_cache_hits_total=+%.0f\n",
		c.Cells, c.Rounds, c.ArcVisits, c.Solves, c.BytesWritten, c.IndexRows, c.Hits, sv.cacheHits)
	fmt.Fprintf(stdout, "samples: setup=%d cold=%d hit=%d read=%d late=%d\n",
		len(sv.setup), len(sv.coldLat), len(sv.hitLat), len(sv.readLat), len(sv.lateMs))
	fmt.Fprintf(stdout, "setup_s by repetition: %.4f\n", sv.setup)
	fmt.Fprintf(stdout, "error_frac=%g (%d failed of %d attempted)\n",
		float64(sv.failed)/float64(max(sv.attempted, 1)), sv.failed, sv.attempted)
	for _, msg := range sv.errs {
		fmt.Fprintln(stdout, "error:", msg)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	t := tails(sv)
	for _, name := range tailNames {
		fmt.Fprintf(stdout, "tail: %-24s %14.6g %s\n", name, t[name].Value, t[name].Unit)
	}

	res := result{Correct: sv.failed == 0, Attempted: sv.attempted, Failed: sv.failed, Metrics: metrics}
	if err := writeResult(work, e, c, res, t); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// endToEnd is the untraced run's report: the end-to-end metrics the
// regression gate bounds.
func endToEnd(sv *served) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(sv.setup), "s"},
		"runs_per_s":   {float64(sv.colds) / sv.coldWall, "1/s"},
		"run_s_p50":    {pct(sv.coldLat, 50), "s"},
		"hit_ms_p50":   {pct(sv.hitLat, 50), "ms"},
		"query_ms_p50": {pct(sv.readLat, 50), "ms"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
}

// tails are the p90 latencies. They are printed and recorded with every
// run but not gated: on the reference machine, time stolen by other
// tenants moves the p90 of a millisecond request by up to 6× from one run
// to the next, far past any bound a regression gate could hold.
var tailNames = []string{"run_s_p90", "hit_ms_p90", "query_ms_p90"}

func tails(sv *served) map[string]metric {
	return map[string]metric{
		"run_s_p90":    {pct(sv.coldLat, 90), "s"},
		"hit_ms_p90":   {pct(sv.hitLat, 90), "ms"},
		"query_ms_p90": {pct(sv.readLat, 90), "ms"},
	}
}

// traced replays the plan through the layers, checks the replayed result
// documents against the served ones, writes the spans, and returns the
// per-layer metrics.
func traced(p *plan, sv *served, c counters, work string, deadline time.Time) (map[string]metric, error) {
	r, err := newReplayer(filepath.Join(work, "replay"))
	if err != nil {
		return nil, err
	}
	tracedNs, untracedNs, err := r.replay(p, deadline)
	if err != nil {
		err = fmt.Errorf("replay: %w", err)
	}
	sv.check(err)
	for _, f := range coldFamilies(p) {
		var err error
		if doc, ok := r.results[f.Digest]; !ok || !bytes.Equal(doc, sv.results[f.Digest]) {
			err = fmt.Errorf("%s: replayed result.json differs from the served one", f.Name)
		}
		sv.check(err)
	}
	err = nil
	if int64(r.solves) != c.Solves || int64(r.bytes) != c.BytesWritten || int64(r.index.Rows()) != c.IndexRows {
		err = fmt.Errorf("replay counters (solves %d, bytes %d, rows %d) differ from the served ones (%d, %d, %d)",
			r.solves, r.bytes, r.index.Rows(), c.Solves, c.BytesWritten, c.IndexRows)
	}
	sv.check(err)
	if err := r.tr.write(filepath.Join(work, "spans.jsonl")); err != nil {
		return nil, err
	}
	return layerMetrics(r.tr, sv, c, tracedNs, untracedNs), nil
}

// writeResult records the run — environment, counters and result — next
// to the spans, so figures from different machines are never compared
// without their context.
func writeResult(work string, e env, c counters, res result, tails map[string]metric) error {
	data, err := json.MarshalIndent(struct {
		Env      env               `json:"env"`
		Counters counters          `json:"counters"`
		Result   result            `json:"result"`
		Tails    map[string]metric `json:"tails"`
	}{e, c, res, tails}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(work, "result.json"), append(data, '\n'), 0o644)
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
