package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"detlb/internal/analysis"
)

// FuzzScenario drives the identity the scenario layer promises: for any
// text spec that parses, the chain
//
//	text grammar → descriptor → JSON → descriptor → RunSpec component
//
// is lossless — the JSON round trip preserves the descriptor exactly, the
// canonical String() re-parses to the same descriptor, and binding the
// round-tripped descriptor produces the same live component as binding the
// original. CI runs this under -fuzz for a short budget every push; the
// checked-in corpus under testdata/fuzz/FuzzScenario keeps past finds green.
func FuzzScenario(f *testing.F) {
	for _, s := range []string{
		"cycle:16", "torus:4,2", "hypercube:4", "complete:9", "petersen",
		"random:32,4,7", "gp:7,2", "kbipartite:3", "circulant:16,1+3",
		"cycle", "torus:,3", "circulant:12",
		"send-floor", "rotor-router*", "good:2", "rand-extra:9", "matching:5",
		"majority", "majority:5", "herman", "herman:3",
		"point:100", "point", "uniform:3", "bimodal:1,5", "random:10,3", "ramp:0,2",
		"opinions", "opinions:10", "tokens", "tokens:5,2",
		"burst:5,0,100", "burst:5,0,100+churn:4,32", "drain:2,9,1",
		"periodic:4,1,16", "refill:6,64,3", "none",
		"faillink:3,0,1", "restorelink:7,0,1", "failnode:2,5", "failnode:2,5,1",
		"restorenode:9,5", "flap:0,1,4,8", "flap:0,1,4,8,3",
		"partition:5,8", "partition:5,8,20", "periodic-fault:6,2",
		"periodic-fault:6,2,9", "flap:0,1,4,8+partition:5,8,20",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fuzzGraph(t, text)
		fuzzAlgo(t, text)
		fuzzWorkload(t, text)
		fuzzSchedule(t, text)
		fuzzTopology(t, text)
	})
}

// jsonRoundTrip marshals v and unmarshals into out (a pointer to v's type),
// failing the test on any loss.
func jsonRoundTrip(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %#v: %v", v, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	got := reflect.ValueOf(out).Elem().Interface()
	if !reflect.DeepEqual(v, got) {
		t.Fatalf("JSON round trip lost data:\n%#v\n%#v", v, got)
	}
}

func fuzzGraph(t *testing.T, text string) {
	s, err := ParseGraph(text)
	if err != nil {
		return
	}
	var rt GraphSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseGraph(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	// Binding is guarded by size: fuzzed descriptors can describe graphs far
	// too large to build in a fuzz iteration, and Nodes() is metadata enough
	// to skip them (Bind would reject or build them identically anyway).
	if n, err := s.Nodes(); err != nil || n <= 0 || n > 128 {
		return
	}
	g1, err1 := s.Bind()
	g2, err2 := rt.Bind()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if g1.Name() != g2.Name() || g1.N() != g2.N() || g1.Degree() != g2.Degree() || g1.SelfLoops() != g2.SelfLoops() {
		t.Fatalf("bound graphs differ: %s vs %s", g1.Name(), g2.Name())
	}
}

func fuzzAlgo(t *testing.T, text string) {
	s, err := ParseAlgo(text)
	if err != nil {
		return
	}
	var rt AlgoSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseAlgo(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	b, err := (GraphSpec{Kind: "cycle", Args: []int64{8}}).Bind()
	if err != nil {
		t.Fatal(err)
	}
	// Protocol kinds normalize with the model tag and bind to Model+Metric;
	// diffusion kinds stay untagged and bind to an Algorithm.
	a1, err1 := s.Bind(b)
	a2, err2 := rt.Bind(b)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if isModel := s.Model == ModelProtocol; isModel != (a1.Model != nil) || isModel == (a1.Algorithm != nil) {
		t.Fatalf("kind %q (model tag %q) bound to %+v", s.Kind, s.Model, a1)
	}
	if boundName(a1) != boundName(a2) {
		t.Fatalf("bound simulators differ: %s vs %s", boundName(a1), boundName(a2))
	}
}

// boundName labels the simulator half of a bound RunSpec.
func boundName(spec analysis.RunSpec) string {
	if spec.Model != nil {
		return spec.Model.Name() + "/" + spec.Metric.Name()
	}
	return spec.Algorithm.Name()
}

func fuzzWorkload(t *testing.T, text string) {
	s, err := ParseWorkload(text)
	if err != nil {
		return
	}
	var rt WorkloadSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseWorkload(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	x1, err1 := s.Bind(16)
	x2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(x1, x2) {
		t.Fatalf("bound workloads differ: %v vs %v", x1, x2)
	}
}

func fuzzSchedule(t *testing.T, text string) {
	s, err := ParseSchedule(text)
	if err != nil {
		return
	}
	var rt ScheduleSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseSchedule(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	e1, err1 := s.Bind(16)
	e2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(e1, e2) {
		t.Fatalf("bound schedules differ: %#v vs %#v", e1, e2)
	}
}

func fuzzTopology(t *testing.T, text string) {
	s, err := ParseTopology(text)
	if err != nil {
		return
	}
	var rt TopologySpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseTopology(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	e1, err1 := s.Bind(16)
	e2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(e1, e2) {
		t.Fatalf("bound topologies differ: %#v vs %#v", e1, e2)
	}
}

// FuzzFamilyJSON drives the untrusted-body path of the serving layer: for
// any bytes Load accepts, the loaded family is already normalized
// (Normalize is idempotent on it), its canonical bytes load back to the
// same canonical bytes and fingerprint, and it expands to exactly its
// cross-product size, an empty schedule or topology list counting as one.
// Seeded from the preset goldens; CI runs it under -fuzz next to
// FuzzScenario.
func FuzzFamilyJSON(f *testing.F) {
	goldens, err := filepath.Glob("testdata/preset-*.json")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no preset goldens to seed from (%v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A second, independent load normalized once more must not move.
		again, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second load of accepted bytes: %v", err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("re-normalizing a loaded family: %v", err)
		}
		if !reflect.DeepEqual(fam, again) {
			t.Fatalf("Normalize is not idempotent:\n%#v\n%#v", fam, again)
		}
		digest, canonical, err := fam.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint of a loaded family: %v", err)
		}
		reloaded, err := Load(bytes.NewReader(canonical))
		if err != nil {
			t.Fatalf("canonical bytes do not load: %v\n%s", err, canonical)
		}
		digest2, canonical2, err := reloaded.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint of the reloaded family: %v", err)
		}
		if !bytes.Equal(canonical, canonical2) || digest != digest2 {
			t.Fatalf("Canonical → Load → Canonical moved (%s → %s):\n%s\n%s", digest, digest2, canonical, canonical2)
		}
		// Expand only families small enough to materialize; the product is
		// bailed early so absurd list lengths cannot overflow it.
		want := 1
		for _, k := range []int{len(fam.Graphs), len(fam.Algos), len(fam.Workloads),
			max(1, len(fam.Schedules)), max(1, len(fam.Topologies))} {
			if want *= k; want > 1<<12 {
				return
			}
		}
		if got := len(fam.Scenarios()); got != want {
			t.Fatalf("family expands to %d cells, want the cross product %d", got, want)
		}
	})
}
