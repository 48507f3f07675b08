package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/columns"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// readDoc decodes a -json output file.
func readDoc(t *testing.T, path string) archive.ResultDoc {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc archive.ResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// readCSV reads a -csv output file as one map per cell, keyed by column.
func readCSV(t *testing.T, path string) (header []string, rows []map[string]string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, v := range rec {
			row[recs[0][i]] = v
		}
		rows = append(rows, row)
	}
	return recs[0], rows
}

// summaryRows parses the stdout summary table into one map per group,
// keyed by header.
func summaryRows(t *testing.T, out string) []map[string]string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "== sweep:") {
			continue
		}
		header := strings.Fields(lines[i+1])
		var rows []map[string]string
		for _, l := range lines[i+3:] {
			if l == "" || strings.HasPrefix(l, "note:") {
				return rows
			}
			row := map[string]string{}
			for j, v := range strings.Fields(l) {
				row[header[j]] = v
			}
			rows = append(rows, row)
		}
	}
	t.Fatalf("no summary table in:\n%s", out)
	return nil
}

func TestSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "cells.csv")
	jsonPath := filepath.Join(dir, "result.json")
	seriesDir := filepath.Join(dir, "series")

	var out strings.Builder
	code := run([]string{
		"-graphs", "hypercube:4;cycle:32",
		"-algos", "send-floor;rotor-router",
		"-workloads", "point:160;bimodal:0,16",
		"-rounds", "50",
		"-sample", "10",
		"-sweep-workers", "3",
		"-csv", csvPath,
		"-json", jsonPath,
		"-series", seriesDir,
	}, &out)
	if code != 0 {
		t.Fatalf("exit code %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "8 specs") {
		t.Fatalf("expected 8-spec sweep summary:\n%s", out.String())
	}

	// The CSV is the index's full projection: the registry's names in
	// registry order, one row per cell.
	header, rows := readCSV(t, csvPath)
	var names []string
	for _, col := range columns.Queryable() {
		names = append(names, col.Name)
	}
	if strings.Join(header, ",") != strings.Join(names, ",") {
		t.Fatalf("csv header %v, want the registry %v", header, names)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 CSV rows, got %d", len(rows))
	}

	doc := readDoc(t, jsonPath)
	if len(doc.Cells) != 8 {
		t.Fatalf("result document has %d cells, want 8", len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.Err != "" {
			t.Fatalf("unexpected failure: %+v", c)
		}
	}
	groups := summaryRows(t, out.String())
	if len(groups) != 4 {
		t.Fatalf("summary has %d groups, want 4:\n%s", len(groups), out.String())
	}
	for _, g := range groups {
		if g["cells"] != "2" {
			t.Fatalf("summary group shape: %v", g)
		}
	}

	series, err := filepath.Glob(filepath.Join(seriesDir, "sweep-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("expected 8 trajectory files, got %d", len(series))
	}
	sample, err := os.ReadFile(series[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sample), `"round":10`) {
		t.Fatalf("trajectory missing sampled round:\n%s", sample)
	}
}

// TestSweepDynamicSchedules: the schedule dimension crosses with the rest,
// recovery metrics land in the result document, the CSV and the summary,
// and the JSONL trajectories carry shock markers that round-trip through
// the trace reader.
func TestSweepDynamicSchedules(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "result.json")
	csvPath := filepath.Join(dir, "cells.csv")
	seriesDir := filepath.Join(dir, "series")

	var out strings.Builder
	code := run([]string{
		"-graphs", "random:64,8,1",
		"-algos", "rotor-router",
		"-workloads", "point:2048",
		"-schedules", "none;burst:20,0,4096;burst:10,5,1024+refill:40,2048,0",
		"-target", "16",
		"-rounds", "120",
		"-sample", "25",
		"-csv", csvPath,
		"-json", jsonPath,
		"-series", seriesDir,
	}, &out)
	if code != 0 {
		t.Fatalf("exit code %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "3 specs") {
		t.Fatalf("expected 3-spec sweep (1 graph × 1 algo × 1 workload × 3 schedules):\n%s", out.String())
	}

	doc := readDoc(t, jsonPath)
	if len(doc.Cells) != 3 {
		t.Fatalf("expected 3 cells, got %d", len(doc.Cells))
	}
	static, burst, composed := doc.Cells[0], doc.Cells[1], doc.Cells[2]
	if static.Schedule != "" || len(static.Shocks) != 0 {
		t.Fatalf("static cell polluted: %+v", static)
	}
	if len(burst.Shocks) != 1 || burst.Shocks[0].RecoveryRounds <= 0 || burst.Shocks[0].PeakDiscrepancy < 4096 {
		t.Fatalf("burst shock record: %+v", burst.Shocks)
	}
	if len(composed.Shocks) != 2 {
		t.Fatalf("composed schedule should shock twice: %+v", composed.Shocks)
	}

	_, rows := readCSV(t, csvPath)
	if len(rows) != 3 {
		t.Fatalf("expected 3 CSV rows, got %d", len(rows))
	}
	if r := rows[0]; r[columns.Schedule] != "" || r[columns.Shocks] != "0" {
		t.Fatalf("static row polluted: %v", r)
	}
	r := rows[1]
	mean, _ := strconv.ParseFloat(r[columns.ShockRecoveryRoundsMean], 64)
	peak, _ := strconv.ParseInt(r[columns.ShockPeakDiscrepancyMax], 10, 64)
	if r[columns.Shocks] != "1" || r[columns.ShocksRecovered] != "1" || mean <= 0 || peak < 4096 {
		t.Fatalf("burst recovery columns: %v", r)
	}
	if rows[2][columns.Shocks] != "2" {
		t.Fatalf("composed row: %v", rows[2])
	}
	groups := summaryRows(t, out.String())
	if len(groups) != 1 || groups[0]["shocks"] != "3" || groups[0]["cells"] != "3" {
		t.Fatalf("summary shocks: %v", groups)
	}

	// Shock markers in the burst spec's trajectory, via the trace reader.
	f, err := os.Open(filepath.Join(seriesDir, "sweep-0001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for _, s := range samples {
		if s.Shock != nil {
			marks++
			if s.Round != 20 || *s.Shock != 4096 {
				t.Fatalf("marker = %+v", s)
			}
		}
	}
	if marks != 1 {
		t.Fatalf("expected 1 shock marker, got %d in %+v", marks, samples)
	}
}

// TestSweepScenarioRoundTrip: any flag combination snapshots to a scenario
// file via -emit-scenario, re-runs bit-identically when loaded back via
// -scenario, and re-emits byte-identically — the acceptance criterion of the
// scenario redesign. The JSON and CSV outputs carry no wall-clock field, so
// the re-run compares them whole.
func TestSweepScenarioRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }

	flags := []string{
		"-graphs", "hypercube:4;random:32,4", // random's default seed must be materialized
		"-algos", "rotor-router;send-floor",
		"-workloads", "point:160",
		"-schedules", "none;burst:10,0,512+churn:6,32",
		"-target", "8",
		"-rounds", "60",
		"-sample", "7",
	}
	var out strings.Builder
	if code := run(append(flags, "-emit-scenario", path("s1.json"), "-json", path("r1.json"), "-csv", path("c1.csv")), &out); code != 0 {
		t.Fatalf("flag run exit %d:\n%s", code, out.String())
	}
	var out2 strings.Builder
	if code := run([]string{"-scenario", path("s1.json"), "-emit-scenario", path("s2.json"), "-json", path("r2.json"), "-csv", path("c2.csv")}, &out2); code != 0 {
		t.Fatalf("scenario run exit %d:\n%s", code, out2.String())
	}

	read := func(name string) []byte {
		data, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if b1, b2 := read("s1.json"), read("s2.json"); !bytes.Equal(b1, b2) {
		t.Fatalf("re-emitted scenario is not byte-identical:\n%s\n---\n%s", b1, b2)
	}
	// The emitted file materializes the random graph's default seed.
	if b1 := read("s1.json"); !strings.Contains(string(b1), "[\n        32,\n        4,\n        1\n      ]") {
		t.Fatalf("default seed not materialized in scenario:\n%s", b1)
	}
	// The result document — recovery records included — and its CSV
	// projection must be byte-identical.
	for _, pair := range [][2]string{{"r1.json", "r2.json"}, {"c1.csv", "c2.csv"}} {
		if a, b := read(pair[0]), read(pair[1]); !bytes.Equal(a, b) {
			t.Fatalf("scenario re-run %s is not byte-identical to the flag run's %s:\n%s\n---\n%s", pair[1], pair[0], a, b)
		}
	}
	// The summary's groups match too; only the title's timing may differ.
	if g1, g2 := summaryRows(t, out.String()), summaryRows(t, out2.String()); len(g1) != 4 || !reflect.DeepEqual(g1, g2) {
		t.Fatalf("summary differs across the re-run:\n%v\n%v", g1, g2)
	}
}

// TestSweepJSONIsResultDoc: -json writes exactly the result document that
// Family.Fingerprint → Bind → analysis.Sweep → archive.BuildResultDoc
// produce for the same family — the bytes lbserve archives as result.json —
// for a shocked and faulted diffusion family and for a protocol family.
func TestSweepJSONIsResultDoc(t *testing.T) {
	for name, flags := range map[string][]string{
		"shocked-faulted": {
			"-graphs", "random:64,8,1", "-algos", "rotor-router;send-floor", "-workloads", "point:2048",
			"-schedules", "none;burst:20,0,4096", "-topologies", "none;periodic-fault:15,5,1",
			"-target", "16", "-rounds", "120", "-sample", "25",
		},
		"protocol": {"-preset", "majority-vs-rotor"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			famPath, jsonPath := filepath.Join(dir, "family.json"), filepath.Join(dir, "result.json")
			var out strings.Builder
			if code := run(append(flags, "-emit-scenario", famPath, "-json", jsonPath), &out); code != 0 {
				t.Fatalf("exit %d:\n%s", code, out.String())
			}
			fam, err := scenario.LoadFile(famPath)
			if err != nil {
				t.Fatal(err)
			}
			digest, _, err := fam.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			specs, cells, err := fam.Bind()
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]scenario.CellColumns, len(cells))
			for i, c := range cells {
				cols[i] = c.Columns()
			}
			want, _, err := archive.BuildResultDoc(fam.Name, digest, cols, specs, analysis.Sweep(specs, analysis.SweepOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-json is not the result document:\n%s\n---\n%s", got, want)
			}
		})
	}
}

func TestSweepPreset(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-list-presets"}, &out); code != 0 {
		t.Fatalf("-list-presets exit %d", code)
	}
	if !strings.Contains(out.String(), "shock-recovery") {
		t.Fatalf("catalog missing shock-recovery:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-preset", "shock-recovery"}, &out); code != 0 {
		t.Fatalf("preset run exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "12 specs") {
		t.Fatalf("shock-recovery should sweep 12 specs (2×2×1×3):\n%s", out.String())
	}
	if code := run([]string{"-preset", "no-such"}, &out); code != 2 {
		t.Fatalf("unknown preset should exit 2, got %d", code)
	}
}

func TestSweepRejectsBadScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"graphs":[{"kind":"dodecahedron"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-scenario", path}, &out); code != 2 {
		t.Fatalf("bad scenario file should exit 2, got %d", code)
	}
	if code := run([]string{"-scenario", filepath.Join(dir, "missing.json")}, &out); code != 2 {
		t.Fatalf("missing scenario file should exit 2, got %d", code)
	}
}

func TestSweepRejectsBadSchedule(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-schedules", "quake:9"}, &out); code != 2 {
		t.Fatalf("bad schedule spec should exit 2, got %d", code)
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-graphs", "dodecahedron:12"}, &out); code != 2 {
		t.Fatalf("bad graph spec should exit 2, got %d", code)
	}
	if code := run([]string{"-algos", "quantum"}, &out); code != 2 {
		t.Fatalf("bad algo spec should exit 2, got %d", code)
	}
	if code := run([]string{"-graphs", " ; "}, &out); code != 2 {
		t.Fatalf("empty sweep should exit 2, got %d", code)
	}
}

// TestSweepFailedSpecExitCode: a spec whose balancer rejects the graph
// configuration reports through the row's error and flips the exit code,
// without killing the other specs.
func TestSweepFailedSpecExitCode(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"-graphs", "hypercube:4",
		"-algos", "send-floor;good:99", // s > d° panics at bind; contained per spec
		"-workloads", "point:160",
		"-rounds", "10",
	}, &out)
	if code != 1 {
		t.Fatalf("expected exit 1 for failed spec, got %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 failed") {
		t.Fatalf("summary missing failure count:\n%s", out.String())
	}
}
