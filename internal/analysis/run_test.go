package analysis

import (
	"strings"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/protocol"
	"detlb/internal/workload"
)

func TestRunDefaultsToPaperHorizon(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	x1 := workload.PointMass(16, 0, 163)
	res := Run(RunSpec{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: x1})
	if res.Horizon != res.BalancingTime {
		t.Fatalf("horizon %d, T %d", res.Horizon, res.BalancingTime)
	}
	if res.Rounds != res.Horizon {
		t.Fatalf("no-patience run should use the full horizon: %d/%d", res.Rounds, res.Horizon)
	}
	if res.InitialDiscrepancy != 163 {
		t.Fatalf("K = %d", res.InitialDiscrepancy)
	}
}

func TestRunPatienceStopsEarly(t *testing.T) {
	b := graph.Lazy(graph.Cycle(16))
	x1 := workload.Uniform(16, 5) // already balanced: min never improves
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: x1,
		MaxRounds: 100000, Patience: 50,
	})
	if !res.StoppedEarly || res.Rounds != 50 {
		t.Fatalf("expected patience stop at 50, got %+v", res)
	}
	if res.FinalDiscrepancy != 0 {
		t.Fatalf("balanced input should stay balanced, disc = %d", res.FinalDiscrepancy)
	}
}

func TestRunTargetStops(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(5))
	x1 := workload.PointMass(32, 0, 3205)
	res := RunToTarget(b, balancer.NewRotorRouterStar(), x1, 12, 100000)
	if !res.ReachedTarget {
		t.Fatalf("target not reached: %+v", res)
	}
	if res.FinalDiscrepancy > 12 {
		t.Fatalf("stopped above target: %d", res.FinalDiscrepancy)
	}
	if res.TargetRound != res.Rounds {
		t.Fatalf("target round bookkeeping: %d vs %d", res.TargetRound, res.Rounds)
	}
}

func TestRunSampling(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	x1 := workload.PointMass(16, 0, 160)
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: x1,
		MaxRounds: 100, SampleEvery: 10,
	})
	if len(res.Series) != 10 {
		t.Fatalf("expected 10 samples, got %d", len(res.Series))
	}
	if res.Series[0].Round != 10 || res.Series[9].Round != 100 {
		t.Fatalf("sample rounds wrong: %+v", res.Series)
	}
}

// TestRunTargetAlreadyMet: an input at or below the target is a 0-round
// time-to-target measurement, not "whenever the trajectory next dips under" —
// for a diffusion spec (K = 4 against target 8) and a majority spec whose
// opinions already agree (0 unconverged against target 0) alike.
func TestRunTargetAlreadyMet(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	consensus := majoritySpec(protocol.NewMajority(64, 7), 0)
	consensus.Initial = workload.Opinions(64, 64)
	cases := []struct {
		name string
		spec RunSpec
		want int64 // the untouched initial value
	}{
		{"send-floor", RunSpec{
			Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: workload.Bimodal(16, 10, 14),
			MaxRounds: 1000, TargetDiscrepancy: Target(8),
		}, 4},
		{"majority", consensus, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.SampleEvery = 0
			res := Run(spec)
			if !res.ReachedTarget || res.TargetRound != 0 {
				t.Fatalf("initial vector meets the target: want TargetRound=0, got %+v", res)
			}
			if res.Rounds != 0 {
				t.Fatalf("a 0-round measurement must not step: %d rounds", res.Rounds)
			}
			if res.FinalDiscrepancy != tc.want || res.MinDiscrepancy != tc.want {
				t.Fatalf("final/min must report the untouched vector: %+v", res)
			}
			// With sampling on, the 0-round run still produces a one-point
			// series so every sampled spec has a trajectory.
			spec.SampleEvery = 5
			res = Run(spec)
			if len(res.Series) != 1 || res.Series[0].Round != 0 || res.Series[0].Discrepancy != tc.want {
				t.Fatalf("0-round run series: %+v", res.Series)
			}
		})
	}
}

// TestRunTargetZeroIsValid: perfect balance (disc = 0) is a requestable
// target — the good-s time-to-balance measurement. The old int64 field made
// 0 indistinguishable from "no target".
func TestRunTargetZeroIsValid(t *testing.T) {
	b := graph.Lazy(graph.Complete(8))
	x1 := workload.Bimodal(8, 10, 18)
	res := RunToTarget(b, balancer.NewGoodS(2), x1, 0, 10000)
	if !res.ReachedTarget {
		t.Fatalf("good-2 on K_8 must reach perfect balance: %+v", res)
	}
	if res.FinalDiscrepancy != 0 || res.TargetRound < 1 {
		t.Fatalf("target-0 bookkeeping: %+v", res)
	}
	// And already-balanced input against target 0 is a 0-round run.
	res = RunToTarget(b, balancer.NewGoodS(2), workload.Uniform(8, 5), 0, 100)
	if !res.ReachedTarget || res.TargetRound != 0 || res.Rounds != 0 {
		t.Fatalf("balanced input, target 0: %+v", res)
	}
}

// TestRunSeriesRecordsStoppingRound: a patience or target stop that falls
// between sampling points must still contribute the final point.
func TestRunSeriesRecordsStoppingRound(t *testing.T) {
	// Patience stop: balanced input never improves, patience 7 stops at
	// round 7, mid-interval for SampleEvery 5.
	b := graph.Lazy(graph.Cycle(16))
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial:   workload.Uniform(16, 5),
		MaxRounds: 1000, Patience: 7, SampleEvery: 5,
	})
	if !res.StoppedEarly || res.Rounds != 7 {
		t.Fatalf("setup: %+v", res)
	}
	if n := len(res.Series); n != 2 || res.Series[n-1].Round != 7 {
		t.Fatalf("stopping round missing from series: %+v", res.Series)
	}

	// Target stop mid-interval: the final point carries the target-meeting
	// discrepancy.
	bb := graph.Lazy(graph.Hypercube(5))
	res = Run(RunSpec{
		Balancing: bb, Algorithm: balancer.NewRotorRouterStar(),
		Initial:   workload.PointMass(32, 0, 3205),
		MaxRounds: 100000, TargetDiscrepancy: Target(12), SampleEvery: 1000,
	})
	if !res.ReachedTarget {
		t.Fatalf("setup: %+v", res)
	}
	if n := len(res.Series); n == 0 || res.Series[n-1].Round != res.TargetRound {
		t.Fatalf("target round missing from series: rounds=%d series=%+v", res.TargetRound, res.Series)
	}
	if res.Series[len(res.Series)-1].Discrepancy > 12 {
		t.Fatalf("final sample above target: %+v", res.Series)
	}
	// A stop that lands exactly on a sampling point is not double-recorded.
	res = Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial:   workload.Uniform(16, 5),
		MaxRounds: 1000, Patience: 10, SampleEvery: 5,
	})
	if n := len(res.Series); n != 2 || res.Series[0].Round != 5 || res.Series[1].Round != 10 {
		t.Fatalf("on-interval stop double-recorded: %+v", res.Series)
	}
}

// TestRunDisconnectedGraphErrs: µ = 0 with no explicit MaxRounds used to run
// a silent 1-round horizon; it must surface as an error instead.
func TestRunDisconnectedGraphErrs(t *testing.T) {
	// Two disjoint triangles: 2-regular, disconnected.
	g, err := graph.New("two-triangles", [][]int{{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Lazy(g)
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial: workload.PointMass(6, 0, 60),
	})
	if res.Err == nil {
		t.Fatalf("disconnected graph with default horizon must error, got %+v", res)
	}
	// An explicit MaxRounds is an informed request and still runs.
	res = Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial: workload.PointMass(6, 0, 60), MaxRounds: 10,
	})
	if res.Err != nil || res.Rounds != 10 {
		t.Fatalf("explicit cap on disconnected graph: %+v", res)
	}
}

func TestRunReportsAuditError(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	x1 := workload.Uniform(8, 101)
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewBiasedRounding(), Initial: x1,
		MaxRounds: 1000,
		Auditors:  []core.Auditor{core.NewCumulativeFairnessAuditor(2)},
	})
	if res.Err == nil {
		t.Fatal("biased rounding must fail a δ=2 audit")
	}
}

func TestRunResultString(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial: workload.PointMass(8, 0, 80), MaxRounds: 10,
	})
	s := res.String()
	if !strings.Contains(s, "rounds=10") || !strings.Contains(s, "K=80") {
		t.Fatalf("summary = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tab.AddRow("a", "1")
	tab.AddRowf("b", 2.5)
	out := tab.String()
	for _, want := range []string{"== demo ==", "col", "value", "a", "2.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestHorizonMultiple(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	x1 := workload.PointMass(16, 0, 160)
	r1 := Run(RunSpec{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: x1})
	r3 := Run(RunSpec{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: x1, HorizonMultiple: 3})
	if r3.Horizon != 3*r1.Horizon {
		t.Fatalf("horizon multiple: %d vs %d", r3.Horizon, r1.Horizon)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{
		Title:  "md demo",
		Note:   "pipe | note",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "x|y")
	tab.AddRow("2") // short row gets padded
	var sb strings.Builder
	if err := tab.RenderMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## md demo", "| a | b |", "| --- | --- |", `x\|y`, "> pipe | note", "| 2 |  |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteReport(t *testing.T) {
	t1 := &Table{Title: "one", Header: []string{"h"}}
	t1.AddRow("v")
	var sb strings.Builder
	if err := WriteReport(&sb, "suite", []*Table{t1, t1}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "# suite\n") {
		t.Fatalf("report header missing:\n%s", sb.String())
	}
	if strings.Count(sb.String(), "## one") != 2 {
		t.Fatal("expected both tables rendered")
	}
}

// TestRunSeriesRecordsHorizonEnd: a run exhausting its horizon mid-interval
// still records its final state — dynamic runs always exit this way, and
// their JSONL trajectories must end at the run's actual last round.
func TestRunSeriesRecordsHorizonEnd(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(16, 0, 160),
		MaxRounds: 47, SampleEvery: 10,
	})
	if n := len(res.Series); n != 5 || res.Series[n-1].Round != 47 {
		t.Fatalf("horizon-end round missing from series: %+v", res.Series)
	}
	if res.Series[4].Discrepancy != res.FinalDiscrepancy {
		t.Fatalf("final sample disagrees with FinalDiscrepancy: %+v vs %d", res.Series[4], res.FinalDiscrepancy)
	}
}
