package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/graph"
	"detlb/internal/scenario"
)

// The spec mini-language lives in internal/scenario (shared with lbsweep and
// the JSON scenario files); lbsim reaches it through buildScenario, and these
// tests drive the parsers and binders directly.

func TestParseGraphVariants(t *testing.T) {
	cases := []struct {
		spec string
		n, d int
	}{
		{"cycle:12", 12, 2},
		{"torus:8,2", 64, 4},
		{"torus:4,3", 64, 6},
		{"hypercube:5", 32, 5},
		{"complete:9", 9, 8},
		{"petersen", 10, 3},
		{"kbipartite:4", 8, 4},
		{"circulant:16,1+3", 16, 4},
		{"random:32,4,2", 32, 4},
	}
	for _, c := range cases {
		s, err := scenario.ParseGraph(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		g, err := s.BindGraph()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n || g.Degree() != c.d {
			t.Errorf("%s: n=%d d=%d, want n=%d d=%d", c.spec, g.N(), g.Degree(), c.n, c.d)
		}
	}
}

func TestParseGraphRejectsUnknown(t *testing.T) {
	if _, err := scenario.ParseGraph("dodecahedron:12"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := scenario.ParseGraph("circulant:16,1+x"); err == nil {
		t.Fatal("expected offset parse error")
	}
}

func TestParseAlgoVariants(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	for _, spec := range []string{
		"send-floor", "send-round", "rotor-router", "rotor-router*", "rotor-star",
		"good:2", "biased", "rand-extra:7", "rand-round", "mimic", "bounded-error",
		"matching", "matching-rand",
	} {
		s, err := scenario.ParseAlgo(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		bound, err := s.Bind(b)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if bound.Algorithm == nil || bound.Algorithm.Name() == "" {
			t.Fatalf("%s: no named algorithm bound: %+v", spec, bound)
		}
	}
}

func TestParseAlgoRejects(t *testing.T) {
	if _, err := scenario.ParseAlgo("quantum"); err == nil {
		t.Fatal("expected unknown algorithm error")
	}
	if _, err := scenario.ParseAlgo("good:x"); err == nil {
		t.Fatal("expected good:S parse error")
	}
}

// TestScenarioEmitLoadRoundTrip: the flag combination resolves to a scenario
// cell whose emitted file loads back to the identical cell, and the re-run is
// bit-identical — lbsim's half of the acceptance criterion. The cell carries
// both a shock schedule and a fault topology, so the round trip covers the
// fifth descriptor dimension too.
func TestScenarioEmitLoadRoundTrip(t *testing.T) {
	cell, _, err := buildScenario("", "hypercube:4", "rotor-router", "point:160",
		"burst:10,0,512", "flap:0,1,12,16,6+partition:30,8,50", -1, 80, 0, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Topology.String() != "flap:0,1,12,16,6+partition:30,8,50" {
		t.Fatalf("topology spec not materialized: %q", cell.Topology.String())
	}
	if cell.Run.Patience != 16*16 {
		t.Fatalf("lbsim's graph-sized patience must be materialized, got %d", cell.Run.Patience)
	}
	if cell.Run.Target == nil || *cell.Run.Target != 8 {
		t.Fatalf("target not materialized: %v", cell.Run.Target)
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := cell.Family().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, loadedFam, err := buildScenario(path, "", "", "", "", "", -1, 0, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cell, loaded) {
		t.Fatalf("loaded cell differs:\n%+v\n%+v", cell, loaded)
	}
	// Re-emitting a loaded scenario writes the loaded family back, so a
	// load → emit cycle is byte-identical.
	path2 := filepath.Join(t.TempDir(), "again.json")
	if err := loadedFam.WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("re-emitted scenario not byte-identical:\n%s\n---\n%s", b1, b2)
	}

	spec1, err := cell.Bind()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := loaded.Bind()
	if err != nil {
		t.Fatal(err)
	}
	res1, res2 := analysis.Run(spec1), analysis.Run(spec2)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("re-run not bit-identical:\n%+v\n%+v", res1, res2)
	}
	if len(res1.Shocks) != 1 || len(res1.Series) == 0 {
		t.Fatalf("expected a shocked, sampled run: %+v", res1)
	}
	if len(res1.Faults) == 0 {
		t.Fatalf("expected a faulted run: %+v", res1)
	}
}

// A multi-run family is lbsweep's business, not lbsim's.
func TestScenarioRejectsFamilies(t *testing.T) {
	cell, _, err := buildScenario("", "cycle:8", "send-floor", "point:64", "", "", -1, 10, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	fam := cell.Family()
	fam.Algos = append(fam.Algos, fam.Algos[0])
	path := filepath.Join(t.TempDir(), "family.json")
	if err := fam.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildScenario(path, "", "", "", "", "", -1, 0, 0, 0, -1); err == nil {
		t.Fatal("lbsim should refuse a 2-run family")
	}
}

func TestParseWorkloadVariants(t *testing.T) {
	cases := []struct {
		spec  string
		total int64
	}{
		{"point:100", 100},
		{"uniform:3", 24},
		{"bimodal:1,5", 4*5 + 4*1},
		{"ramp:0,1", 28},
	}
	for _, c := range cases {
		s, err := scenario.ParseWorkload(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		x, err := s.Bind(8)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		var sum int64
		for _, v := range x {
			sum += v
		}
		if sum != c.total {
			t.Errorf("%s: total %d, want %d", c.spec, sum, c.total)
		}
	}
	if _, err := scenario.ParseWorkload("tsunami:1"); err == nil {
		t.Fatal("expected unknown workload error")
	}
	s, err := scenario.ParseWorkload("random:10,3")
	if err != nil {
		t.Fatal(err)
	}
	if x, err := s.Bind(8); err != nil || len(x) != 8 {
		t.Fatalf("random workload: %v %v", x, err)
	}
}

// TestCSVKeepsStoppingRoundAndShockRows: -csv writes the run's series, so the
// round that stopped the run is the last row even when it falls between
// sampling points, and every shock point has its row. Without -sample the
// CSV holds every round while stdout prints no trajectory.
func TestCSVKeepsStoppingRoundAndShockRows(t *testing.T) {
	base := []string{"-graph", "cycle:64", "-algo", "rotor-router", "-workload", "point:512", "-target", "8"}
	stopRe := regexp.MustCompile(`(?m)^rounds=(\d+)/`)
	shockRe := regexp.MustCompile(`(?m)^shock 1 after round (\d+): .* disc (\d+) `)
	trajectoryRe := regexp.MustCompile(`(?m)^round `)
	for _, tc := range []struct {
		name    string
		args    []string
		shock   bool
		printed bool // stdout carries the trajectory
		rows    int  // expected data rows, 0 = unchecked
	}{
		{"target-stopped", []string{"-sample", "100"}, false, true, 0},
		{"burst", []string{"-sample", "100", "-rounds", "137", "-events", "burst:40,0,2048"}, true, true, 0},
		{"unsampled", []string{"-rounds", "30"}, false, false, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "series.csv")
			var stdout bytes.Buffer
			if code := run(append(append(append([]string{}, base...), tc.args...), "-csv", path), &stdout); code != 0 {
				t.Fatalf("exit %d:\n%s", code, stdout.String())
			}
			out := stdout.String()
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rows, err := csv.NewReader(f).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(rows[0], ","); got != "round,discrepancy,max,min" {
				t.Fatalf("header %q", got)
			}
			m := stopRe.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no summary line:\n%s", out)
			}
			if last := rows[len(rows)-1]; last[0] != m[1] {
				t.Fatalf("last row %v, want the stopping round %s", last, m[1])
			}
			if tc.shock {
				s := shockRe.FindStringSubmatch(out)
				if s == nil {
					t.Fatalf("no shock line:\n%s", out)
				}
				found := false
				for _, row := range rows[1:] {
					found = found || (row[0] == s[1] && row[1] == s[2])
				}
				if !found {
					t.Fatalf("no row for the shock after round %s (disc %s): %v", s[1], s[2], rows)
				}
			}
			if tc.rows > 0 && len(rows)-1 != tc.rows {
				t.Fatalf("%d rows, want %d", len(rows)-1, tc.rows)
			}
			if trajectoryRe.MatchString(out) != tc.printed {
				t.Fatalf("trajectory printed = %v, want %v:\n%s", !tc.printed, tc.printed, out)
			}
		})
	}
}
