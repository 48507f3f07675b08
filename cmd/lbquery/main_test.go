package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
	"detlb/internal/serve"
	"detlb/internal/trace"
)

// seedArchive writes n synthetic single-cell entries straight into dir —
// fabricated results, no engine executions — and returns their digests.
func seedArchive(t *testing.T, dir string, n int) []string {
	t.Helper()
	arch, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []string{"cycle:8", "torus:3,2", "hypercube:3", "complete:8"}
	digests := make([]string, n)
	for i := range n {
		fam, err := scenario.ParseFamily(graphs[i%len(graphs)], "send-floor", "point:64", "", "")
		if err != nil {
			t.Fatal(err)
		}
		fam.Name = fmt.Sprintf("accept-%04d", i)
		digest, canonical, err := fam.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		cells := fam.Scenarios()
		cols := make([]scenario.CellColumns, len(cells))
		results := make([]analysis.RunResult, len(cells))
		for j, c := range cells {
			cols[j] = c.Columns()
			results[j] = analysis.RunResult{
				Rounds: 10 + i%5, Horizon: 40, BalancingTime: 20, Gap: 0.25,
				InitialDiscrepancy: 64, FinalDiscrepancy: int64(i % 3),
				MinDiscrepancy: int64(i % 3), TargetRound: 5, ReachedTarget: true,
				Shocks: []trace.Shock{{
					Round: 8, Added: 32, Discrepancy: 32,
					PeakDiscrepancy: int64(20 + i%10),
					RecoveryRound:   10 + i%7, RecoveryRounds: 2 + i%7,
				}},
			}
		}
		doc, _, err := archive.BuildResultDoc(fam.Name, digest, cols, make([]analysis.RunSpec, len(cells)), results)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arch.Put(digest, canonical, doc); err != nil {
			t.Fatal(err)
		}
		digests[i] = digest
	}
	return digests
}

func startServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{ArchiveDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if code := run(args, &buf); code != 0 {
		t.Fatalf("lbquery %v: exit %d", args, code)
	}
	return buf.Bytes()
}

// TestAcceptanceRestartDeterminism is the PR's acceptance bar: a recovery-
// rounds aggregation grouped by graph kind over 100+ archived runs is
// byte-identical across two server restarts over the same archive directory,
// and lbquery produces the same bytes offline (and remotely).
func TestAcceptanceRestartDeterminism(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 120)

	const query = "/v1/archive/query?group=graph_kind&agg=count,mean(shock_recovery_rounds_mean),max(shock_recovery_rounds_max)"
	ts1 := startServer(t, dir)
	first := httpGet(t, ts1.URL+query)
	ts1.Close()

	ts2 := startServer(t, dir)
	second := httpGet(t, ts2.URL+query)
	if !bytes.Equal(first, second) {
		t.Fatalf("restart changed the query bytes:\n%s\nvs\n%s", first, second)
	}

	// Sanity: the aggregation actually covers all 120 runs across 4 kinds.
	var res archive.Result
	if err := json.Unmarshal(second, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups: %v", res.Rows)
	}
	var total float64
	for _, row := range res.Rows {
		total += row[1].(float64) // count decoded into any = float64
	}
	if total != 120 {
		t.Fatalf("aggregated %v cells, want 120", total)
	}

	// Offline evaluation over the same directory: the same bytes.
	offline := runCLI(t, "-dir", dir, "query",
		"-group", "graph_kind",
		"-agg", "count,mean(shock_recovery_rounds_mean),max(shock_recovery_rounds_max)")
	if !bytes.Equal(first, offline) {
		t.Fatalf("offline lbquery diverged from the server:\n%s\nvs\n%s", first, offline)
	}

	// Remote mode streams the server's bytes verbatim.
	remote := runCLI(t, "-base", ts2.URL, "query",
		"-group", "graph_kind",
		"-agg", "count,mean(shock_recovery_rounds_mean),max(shock_recovery_rounds_max)")
	if !bytes.Equal(first, remote) {
		t.Fatalf("remote lbquery diverged from the server:\n%s\nvs\n%s", first, remote)
	}
}

// TestCLIListQueryDiffColumns covers each subcommand in both modes against
// one seeded archive.
func TestCLIListQueryDiffColumns(t *testing.T) {
	dir := t.TempDir()
	digests := seedArchive(t, dir, 8)
	ts := startServer(t, dir)

	// list: offline == remote, filtered and not.
	for _, args := range [][]string{
		{"list"},
		{"list", "-where", "graph_kind=torus"},
	} {
		offline := runCLI(t, append([]string{"-dir", dir}, args...)...)
		remote := runCLI(t, append([]string{"-base", ts.URL}, args...)...)
		if !bytes.Equal(offline, remote) {
			t.Fatalf("list %v: offline/remote mismatch:\n%s\nvs\n%s", args, offline, remote)
		}
	}
	var entries []archive.Entry
	if err := json.Unmarshal(runCLI(t, "-dir", dir, "list", "-where", "graph_kind=torus"), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("filtered list: %d entries, want 2", len(entries))
	}

	// query csv: header plus matching rows, identical in both modes.
	offlineCSV := runCLI(t, "-dir", dir, "query", "-where", "graph_kind=cycle", "-select", "digest,rounds", "-format", "csv")
	remoteCSV := runCLI(t, "-base", ts.URL, "query", "-where", "graph_kind=cycle", "-select", "digest,rounds", "-format", "csv")
	if !bytes.Equal(offlineCSV, remoteCSV) {
		t.Fatalf("csv mismatch:\n%s\nvs\n%s", offlineCSV, remoteCSV)
	}
	if lines := strings.Split(strings.TrimSpace(string(offlineCSV)), "\n"); lines[0] != "digest,rounds" || len(lines) != 3 {
		t.Fatalf("csv:\n%s", offlineCSV)
	}

	// diff: a digest against itself is identical; both modes agree.
	offlineDiff := runCLI(t, "-dir", dir, "diff", digests[0], digests[0])
	remoteDiff := runCLI(t, "-base", ts.URL, "diff", digests[0], digests[0])
	if !bytes.Equal(offlineDiff, remoteDiff) {
		t.Fatalf("diff mismatch:\n%s\nvs\n%s", offlineDiff, remoteDiff)
	}
	var rep archive.DiffReport
	if err := json.Unmarshal(offlineDiff, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != archive.DiffIdentical {
		t.Fatalf("self diff: %+v", rep)
	}

	// columns: the registry table, identical in both modes.
	if off, rem := runCLI(t, "-dir", dir, "columns"), runCLI(t, "-base", ts.URL, "columns"); !bytes.Equal(off, rem) {
		t.Fatalf("columns mismatch:\n%s\nvs\n%s", off, rem)
	}
}

// TestCLIErrors: usage errors exit 2, evaluation errors exit 1.
func TestCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{}, &buf); code != 2 {
		t.Fatalf("no command: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &buf); code != 2 {
		t.Fatalf("unknown command: exit %d, want 2", code)
	}
	if code := run([]string{"diff", "onlyone"}, &buf); code != 2 {
		t.Fatalf("diff arity: exit %d, want 2", code)
	}
	if code := run([]string{"query", "-format", "xml"}, &buf); code != 2 {
		t.Fatalf("bad format: exit %d, want 2", code)
	}
	dir := t.TempDir()
	if code := run([]string{"-dir", dir, "query", "-where", "nosuch=1"}, &buf); code != 1 {
		t.Fatalf("unknown column: exit %d, want 1", code)
	}
}
