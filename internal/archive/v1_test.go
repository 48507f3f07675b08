package archive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
)

// The golden version-1 entries under testdata were archived by the
// power-iteration solver:
//   - golden-v1: random:64,8,1 × rotor-router;send-floor, pristine and with
//     one failed link, so it carries both cell gaps and fault gaps;
//   - golden-v1-link-failure-recovery: the link-failure-recovery preset,
//     periodic link faults and a healing partition on random:64,8,1 and
//     hypercube:5;
//   - golden-v1-slow: gp:100,1 with one failed link, whose faulted gap
//     version 1 overstated by 5.7·10⁻⁶ (0.9% of µ).
var goldenV1Names = []string{"golden-v1", "golden-v1-link-failure-recovery", "golden-v1-slow"}

// goldenV1 returns a golden entry's digest, scenario bytes and archived
// version-1 result bytes.
func goldenV1(t *testing.T, name string) (digest string, scenarioJSON, resultJSON []byte) {
	t.Helper()
	scenarioJSON, err := os.ReadFile(filepath.Join("testdata", name, ScenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	resultJSON, err = os.ReadFile(filepath.Join("testdata", name, ResultFile))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(scenarioJSON)
	return hex.EncodeToString(sum[:]), scenarioJSON, resultJSON
}

// rerun re-executes an archived scenario with the current code and returns
// its result document, as lbserve would build it.
func rerun(t *testing.T, digest string, scenarioJSON []byte) []byte {
	t.Helper()
	fam, err := scenario.Load(bytes.NewReader(scenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, canonical, err := fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != digest || !bytes.Equal(canonical, scenarioJSON) {
		t.Fatalf("golden scenario is not canonical: digest %s, want %s", gotDigest, digest)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	results := analysis.SweepContext(context.Background(), specs, analysis.SweepOptions{})
	cols := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		cols[i] = c.Columns()
	}
	doc, failures, err := BuildResultDoc(fam.Name, digest, cols, specs, results)
	if err != nil || failures != 0 {
		t.Fatalf("result doc: %v (%d failures)", err, failures)
	}
	return doc
}

// storeWith opens a fresh store holding one entry with the given result.
func storeWith(t *testing.T, digest string, scenarioJSON, resultJSON []byte) *Store {
	t.Helper()
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if outcome, err := arch.Put(digest, scenarioJSON, resultJSON); err != nil || outcome != PutCreated {
		t.Fatalf("seed put: %v %v", outcome, err)
	}
	return arch
}

// mutate decodes a result document, applies f and re-encodes it canonically.
func mutate(t *testing.T, doc []byte, f func(*ResultDoc)) []byte {
	t.Helper()
	var d ResultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	f(&d)
	out, err := encodeResultDoc(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenV1EntryVerifies(t *testing.T) {
	for _, name := range goldenV1Names {
		t.Run(name, func(t *testing.T) {
			digest, scenarioJSON, stored := goldenV1(t, name)
			fresh := rerun(t, digest, scenarioJSON)
			if bytes.Equal(fresh, stored) {
				t.Fatal("a version-2 re-execution cannot equal the version-1 bytes")
			}
			arch := storeWith(t, digest, scenarioJSON, stored)
			if outcome, err := arch.Put(digest, scenarioJSON, fresh); err != nil || outcome != PutVerifiedV1 {
				t.Fatalf("re-put of the golden v1 entry: %v %v", outcome, err)
			}
			got, err := arch.GetResult(digest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, stored) {
				t.Fatal("verifying the v1 entry rewrote its bytes")
			}
		})
	}
}

func TestGoldenV1GapOutsideRuleMismatches(t *testing.T) {
	digest, scenarioJSON, stored := goldenV1(t, "golden-v1")
	fresh := rerun(t, digest, scenarioJSON)
	for name, f := range map[string]func(*ResultDoc){
		"cell gap lowered":  func(d *ResultDoc) { d.Cells[0].Gap -= 1e-6 },
		"fault gap lowered": func(d *ResultDoc) { d.Cells[1].Faults[0].Gap -= 1e-6 },
		"cell gap raised":   func(d *ResultDoc) { d.Cells[0].Gap *= 1.2 },
		"fault gap raised":  func(d *ResultDoc) { d.Cells[1].Faults[0].Gap *= 1.2 },
	} {
		t.Run(name, func(t *testing.T) {
			arch := storeWith(t, digest, scenarioJSON, mutate(t, stored, f))
			if _, err := arch.Put(digest, scenarioJSON, fresh); !errors.Is(err, ErrMismatch) {
				t.Fatalf("a gap outside the version-1 rule must mismatch, got %v", err)
			}
		})
	}
	// Version 1 can only have overstated µ, so a gap a little above the new
	// one still verifies.
	arch := storeWith(t, digest, scenarioJSON, mutate(t, stored, func(d *ResultDoc) { d.Cells[0].Gap += 1e-6 }))
	if outcome, err := arch.Put(digest, scenarioJSON, fresh); err != nil || outcome != PutVerifiedV1 {
		t.Fatalf("a gap raised by 1e-6 must verify: %v %v", outcome, err)
	}
}

func TestV1GapAgrees(t *testing.T) {
	for _, c := range []struct {
		old, cur float64
		want     bool
	}{
		{0.2, 0.2, true},
		{0.2 + 5e-11, 0.2, true},
		{0.2 - 5e-11, 0.2, true},
		{0.2 - 1e-9, 0.2, false}, // v1 cannot understate µ
		{0.2 * 1.09, 0.2, true},
		{0.2 * 1.11, 0.2, false},
		{0.004792535556437771, 0.0047845832652595455, true}, // faulted torus:32,2
		{2.35e-8, 0, true},                                  // partitioned cycle:256
		{2e-6, 0, false},
		{math.NaN(), 0.2, false},
		{0.2, math.NaN(), false},
	} {
		if got := v1GapAgrees(c.old, c.cur); got != c.want {
			t.Errorf("v1GapAgrees(%v, %v) = %v, want %v", c.old, c.cur, got, c.want)
		}
	}
}

func TestGoldenV1OtherFieldMismatches(t *testing.T) {
	digest, scenarioJSON, stored := goldenV1(t, "golden-v1")
	fresh := rerun(t, digest, scenarioJSON)
	for name, f := range map[string]func(*ResultDoc){
		"name":            func(d *ResultDoc) { d.Name += "x" },
		"rounds":          func(d *ResultDoc) { d.Cells[2].Rounds++ },
		"horizon":         func(d *ResultDoc) { d.Cells[0].Horizon++ },
		"final":           func(d *ResultDoc) { d.Cells[3].FinalDisc++ },
		"topology":        func(d *ResultDoc) { d.Cells[1].Topology = "" },
		"fault round":     func(d *ResultDoc) { d.Cells[1].Faults[0].Round++ },
		"fault removed":   func(d *ResultDoc) { d.Cells[1].Faults = nil },
		"cell removed":    func(d *ResultDoc) { d.Cells = d.Cells[:3] },
		"version 2 claim": func(d *ResultDoc) { d.Version = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			arch := storeWith(t, digest, scenarioJSON, mutate(t, stored, f))
			if _, err := arch.Put(digest, scenarioJSON, fresh); !errors.Is(err, ErrMismatch) {
				t.Fatalf("changed %s must mismatch, got %v", name, err)
			}
		})
	}
	// The stored bytes must be the canonical encoding, so a decode that drops
	// an unknown field cannot hide it.
	extra := bytes.Replace(stored, []byte(`"name": "golden-v1",`), []byte(`"name": "golden-v1", "extra": 1,`), 1)
	arch := storeWith(t, digest, scenarioJSON, extra)
	if _, err := arch.Put(digest, scenarioJSON, fresh); !errors.Is(err, ErrMismatch) {
		t.Fatalf("an unknown archived field must mismatch, got %v", err)
	}
}

func TestV2EntryNeedsByteEquality(t *testing.T) {
	digest, scenarioJSON, _ := goldenV1(t, "golden-v1")
	fresh := rerun(t, digest, scenarioJSON)
	arch := storeWith(t, digest, scenarioJSON, fresh)
	if outcome, err := arch.Put(digest, scenarioJSON, fresh); err != nil || outcome != PutVerified {
		t.Fatalf("identical v2 re-put: %v %v", outcome, err)
	}
	drifted := mutate(t, fresh, func(d *ResultDoc) { d.Cells[0].Gap += 1e-12 })
	if _, err := arch.Put(digest, scenarioJSON, drifted); !errors.Is(err, ErrMismatch) {
		t.Fatalf("a v2 gap off by 1e-12 must mismatch, got %v", err)
	}
}
