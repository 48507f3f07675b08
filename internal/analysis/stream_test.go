package analysis

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"detlb/internal/balancer"
	"detlb/internal/graph"
	"detlb/internal/protocol"
	"detlb/internal/trace"
	"detlb/internal/workload"
)

func streamTestSpec() RunSpec {
	g := graph.Cycle(32)
	return RunSpec{
		Balancing:   graph.Lazy(g),
		Algorithm:   balancer.NewRotorRouter(),
		Initial:     workload.PointMass(32, 0, 320),
		MaxRounds:   60,
		SampleEvery: 1,
	}
}

// streamTestSpecs are the inputs of the stream-contract tests: a diffusion
// spec and a majority-protocol spec, both driven by the one round loop.
func streamTestSpecs() []struct {
	name string
	spec RunSpec
} {
	maj := majoritySpec(protocol.NewMajority(64, 7), 0)
	maj.TargetDiscrepancy = nil
	maj.MaxRounds = 60
	maj.SampleEvery = 1
	return []struct {
		name string
		spec RunSpec
	}{
		{"rotor-router", streamTestSpec()},
		{"majority", maj},
	}
}

// Draining StreamInto is Run — same code path, but pin the equivalence so
// the streaming refactor can never drift from the batch API.
func TestStreamIntoDrainedEqualsRun(t *testing.T) {
	spec := streamTestSpec()
	want := Run(spec)
	var got RunResult
	for range StreamInto(context.Background(), spec, &got) {
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("drained StreamInto differs from Run:\n%+v\n%+v", want, got)
	}
}

// The stream yields round 0 (initial state) and then every completed round;
// with SampleEvery=1 each yielded snapshot must agree with the recorded
// series point of that round.
func TestStreamSnapshotsMatchSeries(t *testing.T) {
	spec := streamTestSpec()
	res := Run(spec)

	snaps := map[int]trace.Sample{}
	var rounds []int
	for s := range Stream(context.Background(), spec) {
		snaps[s.Round] = s
		rounds = append(rounds, s.Round)
	}
	if len(rounds) == 0 || rounds[0] != 0 {
		t.Fatalf("stream must open with round 0, got %v", rounds)
	}
	if last := rounds[len(rounds)-1]; last != res.Rounds {
		t.Fatalf("stream ended at round %d, run at %d", last, res.Rounds)
	}
	for _, p := range res.Series {
		s, ok := snaps[p.Round]
		if !ok {
			t.Fatalf("no snapshot for sampled round %d", p.Round)
		}
		if s.Discrepancy != p.Discrepancy || s.Max != p.Max || s.Min != p.Min {
			t.Fatalf("round %d: snapshot %+v != series point %+v", p.Round, s, p)
		}
	}
}

// TestSampleWireEncoding: the streamed samples and the run's Series are the
// same trace records for the same observations, shock markers carried
// behind the pointer — a net-0 injection (churn) still marks.
func TestSampleWireEncoding(t *testing.T) {
	spec := streamTestSpec()
	spec.Events = workload.Churn{Every: 10, Amount: 8, Seed: 1}
	var res RunResult
	var streamed []trace.Sample
	for s := range StreamInto(context.Background(), spec, &res) {
		streamed = append(streamed, s)
	}
	if want := (trace.Sample{Round: 0, Discrepancy: 320, Max: 320, Min: 0}); !reflect.DeepEqual(streamed[0], want) {
		t.Fatalf("plain sample: %+v", streamed[0])
	}
	if !reflect.DeepEqual(streamed[1:], res.Series) {
		t.Fatal("streamed samples and Series drifted apart")
	}
	shocks := 0
	for _, s := range res.Series {
		if s.Shock != nil {
			shocks++
			if *s.Shock != 0 {
				t.Fatalf("churn injects net 0 tokens: %+v", s)
			}
		}
	}
	if shocks == 0 || shocks != len(res.Shocks) {
		t.Fatalf("%d shock-marked samples for %d shocks", shocks, len(res.Shocks))
	}
}

// A dynamic run yields an extra Shock-marked snapshot per injection,
// carrying the net token change.
func TestStreamYieldsShockSnapshots(t *testing.T) {
	spec := streamTestSpec()
	spec.Events = workload.Burst{Round: 10, Node: 3, Amount: 512}
	shocks := 0
	for s := range Stream(context.Background(), spec) {
		if s.Shock != nil {
			shocks++
			if s.Round != 10 || *s.Shock != 512 {
				t.Fatalf("shock snapshot at round %d: %+v", s.Round, s)
			}
		}
	}
	if shocks != 1 {
		t.Fatalf("expected 1 shock snapshot, got %d", shocks)
	}
}

// Per-round cancellation: once the context is canceled, the stream stops
// before starting another round, and the bookkeeping reports the rounds that
// actually completed plus a cancellation error.
func TestStreamCancellationStopsWithinOneRound(t *testing.T) {
	for _, tc := range streamTestSpecs() {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.MaxRounds = 100000
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var res RunResult
			last := -1
			for s := range StreamInto(ctx, spec, &res) {
				last = s.Round
				if s.Round == 3 {
					cancel()
				}
			}
			if last != 3 {
				t.Fatalf("stream yielded round %d after cancellation at round 3", last)
			}
			if res.Rounds != 3 {
				t.Fatalf("res.Rounds = %d, want 3", res.Rounds)
			}
			if res.Err == nil || res.Err.Error() != "analysis: stream canceled: context canceled" {
				t.Fatalf("res.Err = %v", res.Err)
			}
		})
	}
}

// A canceled-before-start context yields only round 0 and stops.
func TestStreamPreCanceledContext(t *testing.T) {
	spec := streamTestSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res RunResult
	count := 0
	for range StreamInto(ctx, spec, &res) {
		count++
	}
	if count != 1 {
		t.Fatalf("pre-canceled stream yielded %d snapshots, want 1 (round 0)", count)
	}
	if res.Rounds != 0 || res.Err == nil {
		t.Fatalf("res = %+v", res)
	}
}

// Breaking out of the loop finalizes the bookkeeping at the break round.
func TestStreamBreakFinalizes(t *testing.T) {
	for _, tc := range streamTestSpecs() {
		t.Run(tc.name, func(t *testing.T) {
			var res RunResult
			var at trace.Sample
			for s := range StreamInto(context.Background(), tc.spec, &res) {
				if s.Round == 5 {
					at = s
					break
				}
			}
			if res.Rounds != 5 || res.FinalDiscrepancy != at.Discrepancy {
				t.Fatalf("break bookkeeping: %+v (snapshot %+v)", res, at)
			}
			if res.Err != nil {
				t.Fatalf("a consumer break is not an error: %v", res.Err)
			}
		})
	}
}

// Breaking on the opening round-0 snapshot still produces the one-point
// trajectory a sampled spec promises.
func TestStreamBreakAtRoundZeroKeepsSample(t *testing.T) {
	for _, tc := range streamTestSpecs() {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.SampleEvery = 5
			var res RunResult
			for range StreamInto(context.Background(), spec, &res) {
				break
			}
			if len(res.Series) != 1 || res.Series[0].Round != 0 ||
				res.Series[0].Discrepancy != res.FinalDiscrepancy {
				t.Fatalf("series after round-0 break: %+v (res %+v)", res.Series, res)
			}
		})
	}
}

// Breaking on a Shock snapshot finalizes at the post-injection state: the
// recorded final discrepancy must match what the consumer just saw, and the
// series must not grow a second, contradictory point for the same round.
func TestStreamBreakOnShockFinalizes(t *testing.T) {
	spec := streamTestSpec()
	spec.Events = workload.Burst{Round: 3, Node: 0, Amount: 4096}
	spec.SampleEvery = 5
	var res RunResult
	var at trace.Sample
	for s := range StreamInto(context.Background(), spec, &res) {
		if s.Shock != nil {
			at = s
			break
		}
	}
	if at.Shock == nil {
		t.Fatal("no shock snapshot seen")
	}
	if res.Rounds != 3 || res.FinalDiscrepancy != at.Discrepancy {
		t.Fatalf("break-on-shock bookkeeping: %+v (snapshot %+v)", res, at)
	}
	if len(res.Series) != 1 || res.Series[0].Shock == nil || res.Series[0].Discrepancy != at.Discrepancy {
		t.Fatalf("series after break-on-shock: %+v", res.Series)
	}
}

// Spec errors end the sequence immediately and surface through StreamInto's
// result, exactly like Run.
func TestStreamSpecError(t *testing.T) {
	var res RunResult
	count := 0
	for range StreamInto(context.Background(), RunSpec{}, &res) {
		count++
	}
	if count != 0 || res.Err == nil {
		t.Fatalf("empty spec: %d snapshots, err %v", count, res.Err)
	}
}

// panickySchedule panics when asked for its delta — a stand-in for broken
// user-supplied code.
type panickySchedule struct{}

func (panickySchedule) DeltaInto(round int, loads, dst []int64) bool {
	panic("schedule exploded")
}

// Panics from user-supplied code are contained into res.Err (matching Run);
// panics from the consumer's own loop body still propagate.
func TestStreamContainsUserPanics(t *testing.T) {
	spec := streamTestSpec()
	spec.Events = panickySchedule{}
	var res RunResult
	for range StreamInto(context.Background(), spec, &res) {
	}
	if res.Err == nil || res.Err.Error() != "analysis: run panicked: schedule exploded" {
		t.Fatalf("res.Err = %v", res.Err)
	}

	defer func() {
		if r := recover(); r != "consumer exploded" {
			t.Fatalf("consumer panic was swallowed or rewritten: %v", r)
		}
	}()
	var res2 RunResult
	for range StreamInto(context.Background(), streamTestSpec(), &res2) {
		panic("consumer exploded")
	}
}

// The stream owns its engine: breaking out of a parallel run must release
// the worker pool goroutines.
func TestStreamBreakReleasesEngine(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := streamTestSpec()
	spec.Workers = 4
	for i := 0; i < 5; i++ {
		for s := range Stream(context.Background(), spec) {
			if s.Round == 2 {
				break
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across broken streams: %d -> %d", before, after)
	}
}
