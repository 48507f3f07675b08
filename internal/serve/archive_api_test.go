package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/columns"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// seedArchive writes synthetic single-cell entries straight into an archive
// directory (no executions), returning their digests. Distinct family names
// give distinct digests over a rotating set of graph kinds.
func seedArchive(t *testing.T, dir string, n int) []string {
	t.Helper()
	arch, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []string{"cycle:8", "torus:3,2", "hypercube:3"}
	digests := make([]string, n)
	for i := range n {
		fam, err := scenario.ParseFamily(graphs[i%len(graphs)], "send-floor", "point:64", "", "")
		if err != nil {
			t.Fatal(err)
		}
		fam.Name = fmt.Sprintf("seed-%03d", i)
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

func get(t *testing.T, url string) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func TestArchiveListFiltered(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 6)
	_, ts := newTestServer(t, Config{ArchiveDir: dir})

	code, _, body := get(t, ts.URL+"/v1/archive")
	if code != http.StatusOK {
		t.Fatalf("unfiltered list: %d %s", code, body)
	}
	var entries []archive.Entry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("entries: %d, want 6", len(entries))
	}

	code, _, body = get(t, ts.URL+"/v1/archive?where=graph_kind%3Dtorus")
	if code != http.StatusOK {
		t.Fatalf("filtered list: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("filtered entries: %d, want 2 (%s)", len(entries), body)
	}

	if code, _, _ = get(t, ts.URL+"/v1/archive?where=nosuch%3D1"); code != http.StatusBadRequest {
		t.Fatalf("bad filter column: %d, want 400", code)
	}
}

func TestArchiveColumnsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir()})
	code, _, body := get(t, ts.URL+"/v1/archive/columns")
	if code != http.StatusOK {
		t.Fatalf("columns: %d", code)
	}
	var cols []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
		Doc  string `json:"doc"`
	}
	if err := json.Unmarshal(body, &cols); err != nil {
		t.Fatal(err)
	}
	regs := columns.Queryable()
	if len(cols) != len(regs) {
		t.Fatalf("columns: %d, want %d", len(cols), len(regs))
	}
	for i, col := range regs {
		if cols[i].Name != col.Name || cols[i].Kind != col.Kind.String() || cols[i].Doc == "" {
			t.Fatalf("column %d: %+v vs registry %+v", i, cols[i], col)
		}
	}
}

func TestArchiveQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9)
	srv, ts := newTestServer(t, Config{ArchiveDir: dir})

	code, ctype, body := get(t, ts.URL+"/v1/archive/query?group=graph_kind&agg=count,mean(rounds)")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("grouped query: %d %s %s", code, ctype, body)
	}
	var res archive.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // cycle, hypercube, torus
		t.Fatalf("groups: %v", res.Rows)
	}

	code, ctype, body = get(t, ts.URL+"/v1/archive/query?select=digest,rounds&where=graph_kind%3Dcycle&format=csv")
	if code != http.StatusOK || ctype != "text/csv" {
		t.Fatalf("csv query: %d %s", code, ctype)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if lines[0] != "digest,rounds" || len(lines) != 4 {
		t.Fatalf("csv body:\n%s", body)
	}

	if code, _, _ = get(t, ts.URL+"/v1/archive/query?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: %d, want 400", code)
	}
	if code, _, _ = get(t, ts.URL+"/v1/archive/query?select=nosuch"); code != http.StatusBadRequest {
		t.Fatalf("bad column: %d, want 400", code)
	}

	// The query counter and index gauge are live.
	if v := metricValue(t, ts.URL, "lbserve_archive_queries_total"); v < 2 {
		t.Fatalf("query counter: %v", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_archive_index_rows"); v != 9 {
		t.Fatalf("index rows gauge: %v", v)
	}
	_ = srv
}

func TestArchiveDiffEndpoint(t *testing.T) {
	dir := t.TempDir()
	digests := seedArchive(t, dir, 4)
	_, ts := newTestServer(t, Config{ArchiveDir: dir})

	// Entries 0 and 3 share graph kind cycle but differ in results.
	code, _, body := get(t, ts.URL+"/v1/archive/diff?a="+digests[0]+"&b="+digests[3])
	if code != http.StatusOK {
		t.Fatalf("diff: %d %s", code, body)
	}
	var rep archive.DiffReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != archive.DiffDiffers || rep.Aligned != 1 {
		t.Fatalf("diff report: %+v", rep)
	}

	// A digest diffed against itself is identical.
	code, _, body = get(t, ts.URL+"/v1/archive/diff?a="+digests[0]+"&b="+digests[0])
	if code != http.StatusOK {
		t.Fatalf("self diff: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != archive.DiffIdentical {
		t.Fatalf("self diff: %+v", rep)
	}

	if code, _, _ = get(t, ts.URL+"/v1/archive/diff?a="+digests[0]); code != http.StatusBadRequest {
		t.Fatalf("missing b: %d, want 400", code)
	}
	if code, _, _ = get(t, ts.URL+"/v1/archive/diff?a="+digests[0]+"&b="+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("unknown digest: %d, want 404", code)
	}
}

// TestV1EntryReplayIndexesArchivedBytes: re-executing an archived
// version-1 entry verifies it within the v1 gap bound, and the index then
// holds the archived v1 gaps — what a restarted server reads from disk —
// not the re-execution's, so queries agree across the restart.
func TestV1EntryReplayIndexesArchivedBytes(t *testing.T) {
	golden := filepath.Join("..", "archive", "testdata", "golden-v1")
	scenarioJSON, err := os.ReadFile(filepath.Join(golden, archive.ScenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	resultJSON, err := os.ReadFile(filepath.Join(golden, archive.ResultFile))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(scenarioJSON)
	digest := hex.EncodeToString(sum[:])
	dir := t.TempDir()
	arch, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Put(digest, scenarioJSON, resultJSON); err != nil {
		t.Fatal(err)
	}

	const query = "/v1/archive/query?select=digest,gap&format=csv"
	_, ts := newTestServer(t, Config{ArchiveDir: dir, CacheMode: CacheOff})
	run := postBytes(t, ts.URL, scenarioJSON)
	code, body := waitResult(t, ts.URL, run.ID)
	if code != http.StatusOK {
		t.Fatalf("v1 replay: %d: %s", code, body)
	}
	// The run's result is the archive's, as a cache hit would serve it.
	if !bytes.Equal(body, resultJSON) {
		t.Fatalf("v1 replay served the re-execution, not the archived bytes:\n%s", body)
	}
	var got RunSummary
	getJSON(t, ts.URL+"/v1/runs/"+run.ID, &got)
	if got.Archive != "verified" {
		t.Fatalf("v1 replay archive outcome %q, want verified", got.Archive)
	}
	_, _, before := get(t, ts.URL+query)
	if !strings.Contains(string(before), "0.20237539852607345") {
		t.Fatalf("index lost the archived v1 gap:\n%s", before)
	}

	_, restarted := newTestServer(t, Config{ArchiveDir: dir})
	if _, _, after := get(t, restarted.URL+query); string(after) != string(before) {
		t.Fatalf("query differs across the restart:\n%s\nvs\n%s", before, after)
	}
}
