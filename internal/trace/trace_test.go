package trace

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// series is a small hand-built trajectory: plain rounds plus one shock and
// one fault point.
func series() []Sample {
	shock := int64(-3)
	return []Sample{
		{Round: 5, Discrepancy: 40, Max: 41, Min: 1},
		{Round: 10, Discrepancy: 20, Max: 21, Min: 1},
		{Round: 10, Discrepancy: 64, Max: 65, Min: 1, Shock: &shock},
		{Round: 12, Discrepancy: 30, Max: 31, Min: 1, Fault: &FaultMark{FailedLinks: 1, Components: 2}},
		{Round: 15, Discrepancy: 9, Max: 10, Min: 1},
	}
}

// TestCSVRoundTrip: every sample — marked ones included — is one CSV row
// under the round,discrepancy,max,min header, and the rows parse back to the
// samples' values.
func TestCSVRoundTrip(t *testing.T) {
	want := series()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ","); got != "round,discrepancy,max,min" {
		t.Fatalf("header %q", got)
	}
	if len(rows)-1 != len(want) {
		t.Fatalf("round trip lost samples: %d vs %d", len(rows)-1, len(want))
	}
	for i, s := range want {
		wantRow := []string{strconv.Itoa(s.Round), strconv.FormatInt(s.Discrepancy, 10),
			strconv.FormatInt(s.Max, 10), strconv.FormatInt(s.Min, 10)}
		if !reflect.DeepEqual(rows[i+1], wantRow) {
			t.Fatalf("row %d: %v vs %v", i, rows[i+1], wantRow)
		}
	}
}

func TestJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, series()[:2]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 JSONL lines, got %d", len(lines))
	}
	if lines[0] != `{"round":5,"discrepancy":40,"max":41,"min":1}` {
		t.Fatalf("line = %s", lines[0])
	}
}

// TestJSONLOmitsPhiWhenDisabled: no sample record carries a phi field — the
// archived documents and trajectory files never had one, and their bytes
// must not grow one.
func TestJSONLOmitsPhiWhenDisabled(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, series()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "phi") {
		t.Fatalf("phi field leaked into the series:\n%s", buf.String())
	}
}

// TestWriteSamplesJSONL covers marker presence on hand-built samples: a
// present pointer is emitted even at 0, an absent one is omitted.
func TestWriteSamplesJSONL(t *testing.T) {
	zero := int64(0)
	samples := []Sample{
		{Round: 1, Discrepancy: 4, Max: 5, Min: 1, Shock: &zero},
		{Round: 2, Discrepancy: 2, Max: 3, Min: 1},
	}
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"shock":0`) || strings.Contains(lines[1], "shock") {
		t.Fatalf("shock marker handling wrong:\n%s", buf.String())
	}
}

// TestJSONLShockRoundTrip: shock markers — including the legitimate net-0
// churn marker — survive WriteSamplesJSONL → ReadJSONL bit-exactly.
func TestJSONLShockRoundTrip(t *testing.T) {
	shock := int64(4096)
	churn := int64(0)
	in := []Sample{
		{Round: 10, Discrepancy: 3, Max: 4, Min: 1},
		{Round: 20, Discrepancy: 4100, Max: 4101, Min: 1, Shock: &shock},
		{Round: 25, Discrepancy: 40, Max: 41, Min: 1, Shock: &churn},
		{Round: 30, Discrepancy: 5, Max: 5, Min: 0},
	}
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
	if strings.Contains(lines[0], "shock") || !strings.Contains(lines[1], `"shock":4096`) {
		t.Fatalf("shock emission wrong:\n%s", buf.String())
	}
	if !strings.Contains(lines[2], `"shock":0`) {
		t.Fatalf("net-0 shock marker dropped:\n%s", buf.String())
	}

	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Round != in[i].Round || out[i].Discrepancy != in[i].Discrepancy ||
			out[i].Max != in[i].Max || out[i].Min != in[i].Min {
			t.Fatalf("sample %d: %+v vs %+v", i, out[i], in[i])
		}
		if (out[i].Shock == nil) != (in[i].Shock == nil) {
			t.Fatalf("sample %d: shock marker presence lost", i)
		}
		if in[i].Shock != nil && *out[i].Shock != *in[i].Shock {
			t.Fatalf("sample %d: shock value %d vs %d", i, *out[i].Shock, *in[i].Shock)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err != nil {
		t.Fatalf("empty input should be fine: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"round\":1}\nnot json\n")); err == nil {
		t.Fatal("expected parse error")
	}
}
