package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"detlb/internal/topology"
	"detlb/internal/workload"
)

// parseErr parses spec in the named descriptor domain and returns the error
// text, or "" when the spec parses.
func parseErr(domain, spec string) string {
	var err error
	switch domain {
	case "graph":
		_, err = ParseGraph(spec)
	case "algo":
		_, err = ParseAlgo(spec)
	case "workload":
		_, err = ParseWorkload(spec)
	case "schedule":
		_, err = ParseSchedule(spec)
	case "topology":
		_, err = ParseTopology(spec)
	}
	if err == nil {
		return ""
	}
	return err.Error()
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Malformed numeric arguments must be parse errors, never silent defaults:
// the historical atoi helper turned "cycle:abc" into a 64-cycle. Malformed
// parts (missing arguments, unknown kinds, inside a composition too) fail at
// parse time as well. The messages are pinned: they are the 400 bodies the
// serving layer returns.
func TestParseRejectsMalformedNumerics(t *testing.T) {
	for _, c := range []struct{ domain, spec, want string }{
		{"graph", "cycle:abc", `graph cycle: bad argument "abc" for n`},
		{"graph", "torus:4,x", `graph torus: bad argument "x" for r`},
		{"graph", "hypercube:3.5", `graph hypercube: bad argument "3.5" for r`},
		{"graph", "complete:1e3", `graph complete: bad argument "1e3" for n`},
		{"graph", "random:64,8,zzz", `graph random: bad argument "zzz" for seed`},
		{"graph", "gp:7,q", `graph gp: bad argument "q" for k`},
		{"graph", "kbipartite:#", `graph kbipartite: bad argument "#" for k`},
		{"graph", "circulant:x,1+2", `graph circulant: bad argument "x" for n`},
		{"graph", "circulant:16,1+x", `bad circulant offset "x"`},
		{"graph", "moebius:3", `unknown graph "moebius"`},
		{"algo", "good:x", `algorithm good: bad argument "x" for s`},
		{"algo", "good:", `algorithm good needs argument "s"`},
		{"algo", "rand-extra:abc", `algorithm rand-extra: bad argument "abc" for seed`},
		{"algo", "rand-round:1.5", `algorithm rand-round: bad argument "1.5" for seed`},
		{"algo", "matching:seed", `algorithm matching: bad argument "seed" for seed`},
		{"algo", "bogus", `unknown algorithm "bogus"`},
		{"workload", "point:x", `workload point: bad argument "x" for total`},
		{"workload", "uniform:abc", `workload uniform: bad argument "abc" for each`},
		{"workload", "bimodal:0,hi", `workload bimodal: bad argument "hi" for hi`},
		{"workload", "random:10,y", `workload random: bad argument "y" for seed`},
		{"workload", "ramp:a,1", `workload ramp: bad argument "a" for base`},
		{"workload", "tsunami:1", `unknown workload "tsunami"`},
		{"schedule", "burst:x,0,10", `schedule burst: bad argument "x" for round`},
		{"schedule", "churn:8,64,s", `schedule churn: bad argument "s" for seed`},
		{"schedule", "refill:10,1k", `schedule refill: bad argument "1k" for amount`},
		{"schedule", "drain:0,9,?", `schedule drain: bad argument "?" for pernode`},
		{"schedule", "burst:20,3", `schedule burst needs argument "amount"`},
		{"schedule", "quake:1,2,3", `unknown schedule "quake"`},
		{"schedule", "burst:10,0,5+quake:1", `unknown schedule "quake"`},
		{"topology", "faillink:x,0,1", `topology faillink: bad argument "x" for round`},
		{"topology", "failnode:1,n", `topology failnode: bad argument "n" for node`},
		{"topology", "partition:abc,8", `topology partition: bad argument "abc" for round`},
		{"topology", "faillink:1,0", `topology faillink needs argument "v"`},
		{"topology", "flap:0,1,4", `topology flap needs argument "period"`},
		{"topology", "periodic-fault:6", `topology periodic-fault needs argument "down"`},
		{"topology", "meteor:1,2,3", `unknown topology "meteor"`},
		{"topology", "flap:0,1,4,8+meteor:1", `unknown topology "meteor"`},
	} {
		if got := parseErr(c.domain, c.spec); got != c.want {
			t.Errorf("%s %q: error %q, want %q", c.domain, c.spec, got, c.want)
		}
	}
}

func TestParseRejectsExcessArgs(t *testing.T) {
	for _, c := range []struct{ domain, spec, want string }{
		{"graph", "petersen:5", "graph petersen takes at most 0 arguments, got 1"},
		{"graph", "cycle:8,9", "graph cycle takes at most 1 arguments, got 2"},
		{"graph", "circulant:16,1+2,7", "graph circulant takes at most 2 arguments, got 3"},
		{"algo", "send-floor:1", "algorithm send-floor takes at most 0 arguments, got 1"},
		{"algo", "rotor-router:2", "algorithm rotor-router takes at most 0 arguments, got 1"},
		{"workload", "point:10,20", "workload point takes at most 1 arguments, got 2"},
		{"schedule", "burst:1,0,10,99", "schedule burst takes at most 3 arguments, got 4"},
		{"topology", "restorelink:1,0,1,9", "topology restorelink takes at most 3 arguments, got 4"},
	} {
		if got := parseErr(c.domain, c.spec); got != c.want {
			t.Errorf("%s %q: error %q, want %q", c.domain, c.spec, got, c.want)
		}
	}
}

// Parsing materializes every static default — including seeds — so a parsed
// descriptor is fully explicit and re-runs are bit-identical.
func TestParseMaterializesDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"cycle", "cycle:64"},
		{"cycle:", "cycle:64"},
		{"torus", "torus:16,2"},
		{"torus:4", "torus:4,2"},
		{"torus:,3", "torus:16,3"},
		{"random:64", "random:64,8,1"},
		{"random:64,8", "random:64,8,1"},
		{"petersen", "petersen"},
		{"circulant:16", "circulant:16,1+2"},
		{"circulant:16,3", "circulant:16,3"},
	}
	for _, c := range cases {
		g, err := ParseGraph(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := g.String(); got != c.want {
			t.Errorf("%q canonicalizes to %q, want %q", c.spec, got, c.want)
		}
	}
	a, err := ParseAlgo("rand-extra")
	if err != nil || a.String() != "rand-extra:1" {
		t.Errorf("rand-extra should materialize seed 1, got %v (%v)", a, err)
	}
	s, err := ParseSchedule("churn:8,64")
	if err != nil || s.String() != "churn:8,64,1" {
		t.Errorf("churn should materialize seed 1, got %v (%v)", s, err)
	}
	w, err := ParseWorkload("point")
	if err != nil || w.String() != "point" {
		t.Errorf("point's dynamic default must stay absent, got %v (%v)", w, err)
	}
	// A bare trailing colon is an empty argument list, valid on zero-arity
	// kinds too (historical CLI compat).
	for _, spec := range []string{"send-floor:", "petersen:", "mimic:"} {
		switch {
		case strings.HasPrefix(spec, "petersen"):
			if _, err := ParseGraph(spec); err != nil {
				t.Errorf("%q should parse: %v", spec, err)
			}
		default:
			if _, err := ParseAlgo(spec); err != nil {
				t.Errorf("%q should parse: %v", spec, err)
			}
		}
	}
	if alias, err := ParseAlgo("rotor-star"); err != nil || alias.Kind != "rotor-router*" {
		t.Errorf("rotor-star alias: %v (%v)", alias, err)
	}
}

func TestScheduleSpecRoundTripsThroughString(t *testing.T) {
	// A composition round-trips through its string and binds to a Compose
	// whose parts carry the arguments in grammar order.
	t.Run("composition_binds_to_Compose", func(t *testing.T) {
		spec, err := ParseSchedule("burst:10,0,512+drain:20,40,2+churn:8,64,5+refill:50,1024,25+periodic:30,5,64")
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSchedule(spec.String())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("%v != %v", spec, again)
		}
		sched, err := spec.Bind(16)
		if err != nil {
			t.Fatal(err)
		}
		want := workload.Compose{
			workload.Burst{Round: 10, Node: 0, Amount: 512},
			workload.Drain{From: 20, To: 40, PerNode: 2},
			workload.Churn{Every: 8, Amount: 64, Seed: 5},
			workload.Refill{Round: 50, Amount: 1024, Every: 25},
			workload.Periodic{Every: 30, Node: 5, Amount: 64},
		}
		if !reflect.DeepEqual(sched, want) {
			t.Fatalf("bound %#v, want %#v", sched, want)
		}
	})
	// A single part binds to the bare schedule, not a one-part Compose, with
	// static defaults (churn's seed) materialized.
	t.Run("single_part_binds_bare", func(t *testing.T) {
		for _, c := range []struct {
			spec string
			want workload.Schedule
		}{
			{"burst:20,3,4096", workload.Burst{Round: 20, Node: 3, Amount: 4096}},
			{"churn:10,256", workload.Churn{Every: 10, Amount: 256, Seed: 1}},
			{"refill:50,1024,25", workload.Refill{Round: 50, Amount: 1024, Every: 25}},
		} {
			spec, err := ParseSchedule(c.spec)
			if err != nil {
				t.Fatalf("%q: %v", c.spec, err)
			}
			sched, err := spec.Bind(16)
			if err != nil {
				t.Fatalf("%q: %v", c.spec, err)
			}
			if !reflect.DeepEqual(sched, c.want) {
				t.Errorf("%q bound %#v, want %#v", c.spec, sched, c.want)
			}
		}
	})
	// Every spelling of a static schedule renders as "none" and binds to nil.
	t.Run("static_spellings_bind_nil", func(t *testing.T) {
		for _, text := range []string{"none", "", "none+none"} {
			none, err := ParseSchedule(text)
			if err != nil || none.String() != "none" {
				t.Fatalf("static schedule %q renders %q (%v)", text, none.String(), err)
			}
			if sched, err := none.Bind(16); err != nil || sched != nil {
				t.Fatalf("static schedule %q binds to %#v (%v)", text, sched, err)
			}
		}
	})
}

func TestTopologyGrammar(t *testing.T) {
	// Malformed numerics and excess arguments are parse errors, never
	// defaults: TestParseRejectsMalformedNumerics and
	// TestParseRejectsExcessArgs pin them with every other domain's.
	// Static defaults (seed, duty, heal, redistribute) are materialized.
	for _, c := range []struct{ spec, want string }{
		{"periodic-fault:6,2", "periodic-fault:6,2,1"},
		{"flap:0,1,4,8", "flap:0,1,4,8,0"},
		{"partition:5,8", "partition:5,8,0"},
		{"failnode:2,5", "failnode:2,5,0"},
		{"none", "none"},
		{"", "none"},
	} {
		s, err := ParseTopology(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := s.String(); got != c.want {
			t.Errorf("%q canonicalizes to %q, want %q", c.spec, got, c.want)
		}
	}
	spec, err := ParseTopology("flap:0,1,4,8,3+partition:5,8,20+periodic-fault:6,2,9")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseTopology(spec.String())
	if err != nil || !reflect.DeepEqual(spec, again) {
		t.Fatalf("String() re-parse: %v != %v (%v)", spec, again, err)
	}
}

func TestTopologyBindValidation(t *testing.T) {
	// Bind-time validation against the graph size: out-of-range nodes and
	// can-never-fire descriptors are rejected, not silently pristine.
	for _, c := range []struct{ spec, want string }{
		{"faillink:1,0,16", `topology "faillink": node 16 out of range [0,16)`},
		{"restorelink:1,16,0", `topology "restorelink": node 16 out of range [0,16)`},
		{"failnode:1,99", `topology "failnode": node 99 out of range [0,16)`},
		{"restorenode:1,-1", `topology "restorenode": node -1 out of range [0,16)`},
		{"failnode:1,5,2", `topology "failnode": redistribute must be 0 or 1, got 2`},
		{"flap:0,16,4,8", `topology "flap": node 16 out of range [0,16)`},
		{"flap:0,1,4,8,9", `topology "flap": duty 9 outside [0,8) (0 = half the period)`},
		{"partition:5,16", `topology "partition": boundary 16 outside (0,16)`},
		{"partition:5,0", `topology "partition": boundary 0 outside (0,16)`},
		{"partition:10,8,10", `topology "partition" can never fire: heal round not after the cut`},
		{"periodic-fault:0,2", `topology "periodic-fault" can never fire: non-positive cadence or downtime`},
		{"faillink:-1,0,1", `topology "faillink" can never fire: negative round`},
		{"restorenode:-1,2", `topology "restorenode" can never fire: negative round`},
		{"failnode:-3,2", `topology "failnode" can never fire: negative round`},
		{"flap:0,1,-1,8", `topology "flap" can never fire: negative start or non-positive period`},
	} {
		s, err := ParseTopology(c.spec)
		if err != nil {
			t.Fatalf("%q should parse (bind rejects it): %v", c.spec, err)
		}
		if _, err := s.Bind(16); errText(err) != c.want {
			t.Errorf("topology %q on 16 nodes: bind error %q, want %q", c.spec, errText(err), c.want)
		}
	}
	// Descriptors that bypass the text grammar (JSON bodies) are validated
	// by Bind with the parser's messages.
	for _, c := range []struct {
		spec TopologySpec
		want string
	}{
		{TopologySpec{{Kind: "meteor"}}, `unknown topology "meteor"`},
		{TopologySpec{{Kind: "failnode", Args: []int64{1}}}, `topology failnode needs argument "node"`},
		{TopologySpec{{Kind: "failnode", Args: []int64{1, 2, 0, 4}}}, "topology failnode takes at most 3 arguments, got 4"},
	} {
		if _, err := c.spec.Bind(16); errText(err) != c.want {
			t.Errorf("topology %v: bind error %q, want %q", c.spec, errText(err), c.want)
		}
	}
	// A pristine spec binds to nil; a composition binds to a Compose.
	none, err := ParseTopology("none")
	if err != nil {
		t.Fatal(err)
	}
	if sched, err := none.Bind(16); err != nil || sched != nil {
		t.Fatalf("pristine bind: %v (%v)", sched, err)
	}
	composed, err := ParseTopology("flap:0,1,4,8+partition:5,8,20")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := composed.Bind(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sched.(topology.Compose); !ok {
		t.Fatalf("composed spec bound to %T, want topology.Compose", sched)
	}
}

// Topologies are the innermost cross-product dimension, and a bound faulted
// cell carries its schedule through to the RunSpec.
func TestFamilyTopologyCrossProduct(t *testing.T) {
	fam, err := ParseFamily("cycle:16", "rotor-router", "point:64", "none;burst:5,0,32", "none;partition:5,8,20")
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expected 2 schedules × 2 topologies = 4 cells, got %d", len(cells))
	}
	// Innermost: topology varies fastest.
	wantTopos := []string{"none", "partition:5,8,20", "none", "partition:5,8,20"}
	wantScheds := []string{"none", "none", "burst:5,0,32", "burst:5,0,32"}
	for i := range cells {
		if cells[i].Topology.String() != wantTopos[i] || cells[i].Schedule.String() != wantScheds[i] {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s)", i,
				cells[i].Schedule.String(), cells[i].Topology.String(), wantScheds[i], wantTopos[i])
		}
		if (specs[i].Topology != nil) != (wantTopos[i] != "none") {
			t.Fatalf("cell %d bound Topology %v for spec %q", i, specs[i].Topology, wantTopos[i])
		}
	}
}

func TestFamilyJSONRoundTripIsStable(t *testing.T) {
	fam, err := ParseFamily(
		"hypercube:4;cycle:32",
		"send-floor;rand-extra:7",
		"point:160;bimodal:0,16",
		"none;burst:10,0,512",
		"none;flap:0,1,5,8,3",
	)
	if err != nil {
		t.Fatal(err)
	}
	fam.Run = RunParams{Rounds: 50, SampleEvery: 10, Target: targetPtr(0)}

	var buf1 bytes.Buffer
	if err := fam.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fam, loaded) {
		t.Fatalf("load(write(f)) != f:\n%+v\n%+v", fam, loaded)
	}
	var buf2 bytes.Buffer
	if err := loaded.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("serialization not stable:\n%s\n---\n%s", buf1.Bytes(), buf2.Bytes())
	}
}

func TestLoadRejectsUnknownFieldsAndVersions(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"graphs":[],"algos":[],"workloads":[],"grpahs":[]}`)); err == nil {
		t.Fatal("typo'd field should be rejected")
	}
	if _, err := Load(strings.NewReader(`{"version":99,"graphs":[],"algos":[],"workloads":[]}`)); err == nil {
		t.Fatal("future version should be rejected")
	}
	if f, err := Load(strings.NewReader(`{"graphs":[{"kind":"cycle"}],"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}]}`)); err != nil {
		t.Fatalf("versionless file should load as version 1: %v", err)
	} else if f.Version != 1 {
		t.Fatalf("version = %d", f.Version)
	}
}

func TestFamilyExpansionOrder(t *testing.T) {
	fam, err := ParseFamily("cycle:8;petersen", "send-floor;rotor-router", "point:64", "none;burst:5,0,32", "")
	if err != nil {
		t.Fatal(err)
	}
	cells := fam.Scenarios()
	if len(cells) != 8 {
		t.Fatalf("expected 8 cells, got %d", len(cells))
	}
	// Graphs outermost, schedules innermost — the historical lbsweep order.
	want := []string{
		"cycle:8|send-floor|none", "cycle:8|send-floor|burst:5,0,32",
		"cycle:8|rotor-router|none", "cycle:8|rotor-router|burst:5,0,32",
		"petersen|send-floor|none", "petersen|send-floor|burst:5,0,32",
		"petersen|rotor-router|none", "petersen|rotor-router|burst:5,0,32",
	}
	for i, c := range cells {
		got := c.Graph.String() + "|" + c.Algo.String() + "|" + c.Schedule.String()
		if got != want[i] {
			t.Errorf("cell %d = %q, want %q", i, got, want[i])
		}
	}
}

// Binding shares one balancing graph per graph descriptor and one algorithm
// instance per (graph, algorithm) pair — the sweep's engine-reuse identities.
func TestBindScenariosShares(t *testing.T) {
	fam, err := ParseFamily("cycle:16", "rotor-router", "point:64;uniform:4", "none;burst:5,0,32", "")
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 || len(cells) != 4 {
		t.Fatalf("expected 4 specs, got %d", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Balancing != specs[0].Balancing {
			t.Errorf("spec %d does not share the balancing graph", i)
		}
		if specs[i].Algorithm != specs[0].Algorithm {
			t.Errorf("spec %d does not share the algorithm instance", i)
		}
	}
	// Workloads shared per (graph, workload): specs 0,1 share x1, 2,3 share
	// the other; and the two must differ.
	if &specs[0].Initial[0] != &specs[1].Initial[0] || &specs[2].Initial[0] != &specs[3].Initial[0] {
		t.Error("specs of the same workload descriptor should share x1")
	}
	if &specs[0].Initial[0] == &specs[2].Initial[0] {
		t.Error("distinct workload descriptors must not share x1")
	}
	// The static cells bind nil schedules; the burst cells bind Burst values.
	if specs[0].Events != nil || specs[1].Events == nil {
		t.Errorf("schedule binding: %v / %v", specs[0].Events, specs[1].Events)
	}
	if b, ok := specs[1].Events.(workload.Burst); !ok || b.Amount != 32 {
		t.Errorf("bound schedule = %#v", specs[1].Events)
	}
}

// A static scenario survives the singleton-family round trip as a DeepEqual
// identity: the expansion fallback uses the same empty-but-non-nil canonical
// schedule normalization produces.
func TestStaticScenarioFamilyRoundTrip(t *testing.T) {
	cell := Scenario{
		Graph:    GraphSpec{Kind: "cycle", Args: []int64{8}},
		Algo:     AlgoSpec{Kind: "send-floor"},
		Workload: WorkloadSpec{Kind: "point", Args: []int64{64}},
		Run:      RunParams{Rounds: 10},
	}
	if err := cell.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cell.Family().Write(&buf); err != nil {
		t.Fatal(err)
	}
	fam, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cells := fam.Scenarios()
	if len(cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cells))
	}
	if !reflect.DeepEqual(cell, cells[0]) {
		t.Fatalf("static cell lost canonical form:\n%#v\n%#v", cell, cells[0])
	}
}

func TestBindRunParams(t *testing.T) {
	cell := Scenario{
		Graph:    GraphSpec{Kind: "cycle", Args: []int64{8}},
		Algo:     AlgoSpec{Kind: "send-floor"},
		Workload: WorkloadSpec{Kind: "point", Args: []int64{64}},
		Run: RunParams{
			Rounds: 40, HorizonMultiple: 2, Patience: 9,
			Workers: 3, SampleEvery: 5, Target: targetPtr(0),
		},
	}
	spec, err := cell.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if spec.MaxRounds != 40 || spec.HorizonMultiple != 2 || spec.Patience != 9 ||
		spec.Workers != 3 || spec.SampleEvery != 5 {
		t.Fatalf("run params not mapped: %+v", spec)
	}
	if spec.TargetDiscrepancy == nil || *spec.TargetDiscrepancy != 0 {
		t.Fatalf("target 0 must survive binding, got %v", spec.TargetDiscrepancy)
	}
	if spec.TargetDiscrepancy == cell.Run.Target {
		t.Fatal("bound target must be a fresh pointer, not the descriptor's")
	}
}

// Constructor panics (family validation) surface as errors, so one bad
// descriptor cannot kill a loop over many scenarios.
func TestBindContainsConstructorPanics(t *testing.T) {
	for _, c := range []struct {
		spec GraphSpec
		want string
	}{
		{GraphSpec{Kind: "cycle", Args: []int64{2}}, "graph cycle:2: graph: cycle needs n >= 3, got 2"},
		{GraphSpec{Kind: "torus", Args: []int64{1, 2}}, "graph torus:1,2: graph: torus needs side >= 3, got 1"},
		{GraphSpec{Kind: "random", Args: []int64{16, 17, 1}},
			"graph random:16,17,1: graph: random regular needs 1 <= d < n, got d=17 n=16"},
	} {
		if _, err := c.spec.Bind(); errText(err) != c.want {
			t.Errorf("%v: bind error %q, want %q", c.spec, errText(err), c.want)
		}
	}
	// Schedules addressing a node out of range, or that can never fire, are
	// rejected at bind time instead of running static under a dynamic label.
	type bindCase struct{ spec, want string }
	bindRejects := func(t *testing.T, cases []bindCase) {
		for _, c := range cases {
			s, err := ParseSchedule(c.spec)
			if err != nil {
				t.Fatalf("%q should parse (bind rejects it): %v", c.spec, err)
			}
			if _, err := s.Bind(16); errText(err) != c.want {
				t.Errorf("schedule %q on 16 nodes: bind error %q, want %q", c.spec, errText(err), c.want)
			}
		}
	}
	t.Run("schedule_out_of_range_or_never_fires", func(t *testing.T) {
		bindRejects(t, []bindCase{
			{"burst:5,99,32", `schedule "burst": node 99 out of range [0,16)`},
			{"periodic:5,-1,10", `schedule "periodic": node -1 out of range [0,16)`},
			{"churn:0,256", `schedule "churn" can never fire: non-positive cadence or amount`},
			{"periodic:0,1,10", `schedule "periodic" can never fire: non-positive cadence or zero amount`},
			{"burst:-5,0,10", `schedule "burst" can never fire: negative round or zero amount`},
			{"drain:20,10,5", `schedule "drain" can never fire: empty window or non-positive per-node amount`},
			{"drain:5,10,0", `schedule "drain" can never fire: empty window or non-positive per-node amount`},
			{"refill:10,100,-5", `schedule "refill" can never fire: negative round or cadence, or zero amount`},
			// A bad part inside a composition.
			{"burst:10,0,5+burst:1,99,32", `schedule "burst": node 99 out of range [0,16)`},
		})
	})
	t.Run("schedule_zero_amount", func(t *testing.T) {
		bindRejects(t, []bindCase{
			{"burst:20,0,0", `schedule "burst" can never fire: negative round or zero amount`},
			{"periodic:5,1,0", `schedule "periodic" can never fire: non-positive cadence or zero amount`},
			{"refill:10,0", `schedule "refill" can never fire: negative round or cadence, or zero amount`},
		})
	})
	// Descriptors that bypass the text grammar (JSON bodies) are validated
	// by Bind with the parser's messages.
	for _, c := range []struct {
		spec ScheduleSpec
		want string
	}{
		{ScheduleSpec{{Kind: "quake"}}, `unknown schedule "quake"`},
		{ScheduleSpec{{Kind: "burst", Args: []int64{1, 2}}}, `schedule burst needs argument "amount"`},
		{ScheduleSpec{{Kind: "burst", Args: []int64{1, 2, 3, 4}}}, "schedule burst takes at most 3 arguments, got 4"},
	} {
		if _, err := c.spec.Bind(16); errText(err) != c.want {
			t.Errorf("schedule %v: bind error %q, want %q", c.spec, errText(err), c.want)
		}
	}
	for _, c := range []struct {
		spec WorkloadSpec
		want string
	}{
		{WorkloadSpec{Kind: "random", Args: []int64{-5, 1}}, "workload random:-5,1: workload: random max must be ≥ 0, got -5"},
		{WorkloadSpec{Kind: "tsunami"}, `unknown workload "tsunami"`},
		{WorkloadSpec{Kind: "point", Args: []int64{1, 2}}, "workload point takes at most 1 arguments, got 2"},
	} {
		if _, err := c.spec.Bind(8); errText(err) != c.want {
			t.Errorf("workload %v: bind error %q, want %q", c.spec, errText(err), c.want)
		}
	}
}

func TestGraphSpecNodes(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"cycle:12", 12}, {"torus:4,3", 64}, {"hypercube:5", 32},
		{"complete:9", 9}, {"petersen", 10}, {"gp:7,2", 14},
		{"kbipartite:4", 8}, {"circulant:16,1+3", 16}, {"random:32,4,2", 32},
	}
	kinds := map[string]bool{}
	for _, c := range cases {
		g, err := ParseGraph(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		n, err := g.Nodes()
		if err != nil || n != c.n {
			t.Errorf("%s: Nodes() = %d (%v), want %d", c.spec, n, err, c.n)
		}
		b, err := g.Bind()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if b.N() != c.n {
			t.Errorf("%s: bound n = %d, want %d", c.spec, b.N(), c.n)
		}
		// Solves is sizing metadata too: it must say whether the built
		// graph lacks an analytic ν₂.
		solves, err := g.Solves()
		if _, hint := b.Graph().Nu2(); err != nil || solves == hint {
			t.Errorf("%s: Solves() = %v (%v), but analytic ν₂ recorded = %v", c.spec, solves, err, hint)
		}
		kinds[g.Kind] = true
	}
	if len(kinds) != len(graphRegistry) {
		t.Errorf("cases cover %d of %d graph kinds", len(kinds), len(graphRegistry))
	}
}

func TestGraphSelfLoops(t *testing.T) {
	g, err := ParseGraph("cycle:8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if b.SelfLoops() != 2 {
		t.Fatalf("nil SelfLoops should bind lazily (d° = d = 2), got %d", b.SelfLoops())
	}
	zero := 0
	g.SelfLoops = &zero
	b, err = g.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if b.SelfLoops() != 0 {
		t.Fatalf("explicit d° = 0 must survive, got %d", b.SelfLoops())
	}
	neg := -1
	g.SelfLoops = &neg
	if _, err := g.Bind(); err == nil {
		t.Fatal("negative self-loops should fail")
	}
}
