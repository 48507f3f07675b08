package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"detlb/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden scenario files")

func TestPresetCatalog(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("empty preset catalog")
	}
	for _, name := range names {
		f, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Name != name {
			t.Errorf("%s: family name %q", name, f.Name)
		}
		if PresetDescription(name) == "" {
			t.Errorf("%s: no description", name)
		}
		specs, _, err := f.Bind()
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		if len(specs) == 0 {
			t.Errorf("%s: binds to an empty sweep", name)
		}
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Fatal("unknown preset should error")
	}
	// Preset returns fresh families: mutating one must not leak into the next.
	a, _ := Preset(names[0])
	a.Graphs = nil
	b, _ := Preset(names[0])
	if len(b.Graphs) == 0 {
		t.Fatal("Preset returned a shared, mutated family")
	}
}

// Golden scenario files pin the preset catalog's serialized form: a grammar
// or format change that would silently alter saved experiment descriptions
// fails here first. Regenerate deliberately with -update.
func TestPresetGoldenFiles(t *testing.T) {
	for _, name := range []string{"shock-recovery", "rotor-vs-quasirandom", "majority-vs-rotor"} {
		path := filepath.Join("testdata", "preset-"+name+".json")
		fam, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fam.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (regenerate with go test ./internal/scenario -run Golden -update): %v", path, err)
		}
		if !bytes.Equal(golden, buf.Bytes()) {
			t.Errorf("%s: preset serialization drifted from the golden file\n-- golden --\n%s\n-- got --\n%s",
				name, golden, buf.Bytes())
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, fam) {
			t.Errorf("%s: loaded golden differs from Preset(%q)", path, name)
		}
	}
}

// The shock-recovery golden file must run bit-identically to the equivalent
// flag invocation — the spec lists spelled out the way lbsweep's flags would
// pass them, with the same run parameters. This is the acceptance identity:
// scenario files are snapshots of flag combinations, not approximations.
func TestGoldenMatchesFlagInvocation(t *testing.T) {
	fam, err := LoadFile(filepath.Join("testdata", "preset-shock-recovery.json"))
	if err != nil {
		t.Fatal(err)
	}
	flagFam, err := ParseFamily(
		"random:64,8,1;hypercube:5",
		"rotor-router;send-floor",
		"point:2048",
		"none;burst:20,0,4096;burst:10,5,1024+refill:60,2048,0",
		"",
	)
	if err != nil {
		t.Fatal(err)
	}
	flagFam.Run = RunParams{Rounds: 120, Target: targetPtr(16), SampleEvery: 25}

	fileSpecs, fileCells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	flagSpecs, flagCells, err := flagFam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(fileSpecs) != len(flagSpecs) {
		t.Fatalf("%d specs from the file, %d from the flags", len(fileSpecs), len(flagSpecs))
	}
	for i := range fileCells {
		a, b := fileCells[i], flagCells[i]
		a.Run, b.Run = RunParams{}, RunParams{}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a, b)
		}
	}

	fileRes := analysis.Sweep(fileSpecs, analysis.SweepOptions{})
	flagRes := analysis.Sweep(flagSpecs, analysis.SweepOptions{})
	if !reflect.DeepEqual(fileRes, flagRes) {
		t.Fatal("scenario-file results are not bit-identical to the flag invocation")
	}
	// The runs are real: shocks and sampled series must be present.
	sawShock, sawSeries := false, false
	for _, r := range fileRes {
		if r.Err != nil {
			t.Fatalf("spec failed: %v", r.Err)
		}
		sawShock = sawShock || len(r.Shocks) > 0
		sawSeries = sawSeries || len(r.Series) > 0
	}
	if !sawShock || !sawSeries {
		t.Fatalf("expected shocks and series in the golden runs (shock=%v series=%v)", sawShock, sawSeries)
	}
}

// The majority-vs-rotor preset is the two-family acceptance scenario: one
// signed opinion vector driven through rotor-router diffusion and the
// exact-majority protocol in a single sweep, each cell judged by its own
// metric. Both must actually converge to the shared target.
func TestMajorityVsRotorPreset(t *testing.T) {
	fam, err := Preset("majority-vs-rotor")
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(specs))
	}
	results := analysis.Sweep(specs, analysis.SweepOptions{})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("cell %d (%s): %v", i, cells[i].Algo.String(), res.Err)
		}
		if !res.ReachedTarget {
			t.Errorf("cell %d (%s): did not reach the target (final %d after %d rounds)",
				i, cells[i].Algo.String(), res.FinalDiscrepancy, res.Rounds)
		}
		wantMetric := ""
		if cells[i].Algo.Model == ModelProtocol {
			wantMetric = "unconverged"
		}
		if res.Metric != wantMetric {
			t.Errorf("cell %d (%s): metric %q, want %q", i, cells[i].Algo.String(), res.Metric, wantMetric)
		}
		if len(res.Series) == 0 && res.TargetRound > 20 {
			t.Errorf("cell %d: SampleEvery produced no series", i)
		}
	}
	// The two cells share the same initial vector object (one workload bind
	// per (graph, workload) pair), so the race really is on identical input.
	if &specs[0].Initial[0] != &specs[1].Initial[0] {
		t.Error("cells do not share the bound initial vector")
	}
}
