// Package analysis is the experiment harness: it runs (graph, algorithm,
// workload) triples to the paper's time horizon T = O(log(Kn)/µ) with
// early-stop detection, collects discrepancy metrics and audit results, and
// regenerates Table 1 and the per-theorem experiments as text tables (see
// AllExperiments for the IDs lbreport -only accepts).
package analysis

import (
	"context"
	"fmt"

	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/spectral"
	"detlb/internal/topology"
	"detlb/internal/trace"
	"detlb/internal/workload"
)

// RunSpec describes one simulation.
type RunSpec struct {
	// Balancing is the graph G+ to run on.
	Balancing *graph.Balancing
	// Algorithm is the balancer under test.
	Algorithm core.Balancer
	// Model, when non-nil, replaces Algorithm: the run steps a model built by
	// Model.New(Initial, Workers) — a population-protocol machine, say —
	// through the same round loop as a diffusion engine, and its horizon
	// defaults to Model.DefaultHorizon instead of the spectral T. Algorithm
	// must be nil; Balancing is still required (it sizes the run and labels
	// results). Model runs are static: Events, Topology, and Auditors
	// (engine-typed) are rejected through RunResult.Err.
	Model core.ModelBuilder
	// Metric maps model state to the value the round loop tracks in place of
	// the load discrepancy (required with Model; ignored on diffusion runs).
	// TargetDiscrepancy, Patience, and the discrepancy of every trace.Sample
	// read this metric's value on model runs, so time-to-target
	// generalizes to time-to-consensus.
	Metric core.Metric
	// Initial is x₁ (not mutated).
	Initial []int64

	// MaxRounds caps the run; 0 means use the paper's T = ⌈16·ln(Kn)/µ⌉.
	MaxRounds int
	// HorizonMultiple scales the default T cap (0 or 1 means 1×). It is
	// ignored when MaxRounds is set: an explicit cap is already the exact
	// horizon the caller asked for.
	HorizonMultiple int
	// Patience stops the run once the running minimum discrepancy has not
	// improved for this many rounds (0 disables early stopping). Periodic
	// orbits (rotor-router) make "unchanged discrepancy" unreliable, so the
	// criterion is no-new-minimum. Each injected shock (see Events) restarts
	// the clock: the pre-shock minimum is not a meaningful improvement
	// baseline while the system is re-absorbing new load.
	Patience int
	// TargetDiscrepancy, when non-nil, is the discrepancy target of the run;
	// 0 is a valid target (perfect balance, the SEND-round/good-s
	// time-to-balance measurement). Use Target to build the pointer inline.
	//
	// On a static run (Events == nil) the run stops at the first round whose
	// discrepancy is ≤ the target — round 0 if the initial vector already
	// meets it. On a dynamic run the target instead defines per-shock
	// recovery (RunResult.Shocks) and the run continues to its horizon.
	TargetDiscrepancy *int64
	// Events, when non-nil, injects load between rounds: after every
	// completed round r (including r = 0, before the first) the schedule's
	// delta is added to the load vector via Engine.ApplyDelta, and every
	// nonzero injection is recorded as a trace.Shock with its recovery
	// metrics. Schedules are pure functions of (round, loads), so dynamic
	// runs keep the engine's bit-identical-across-worker-counts guarantee.
	Events workload.Schedule
	// Topology, when non-nil, injects link/node fault events between rounds:
	// after every completed round r (including r = 0, before the first) the
	// schedule's delta is applied via Engine.ApplyTopologyDelta — before the
	// same round's workload injection, so the network changes first and load
	// then arrives on the changed network — and every effective delta is
	// recorded as a trace.FaultEvent with its recovery metrics. Schedules
	// are pure functions of (round, graph), so faulted runs keep the
	// engine's bit-identical-across-worker-counts guarantee. Like Events, a
	// topology schedule makes the run dynamic: the discrepancy target
	// defines per-fault recovery instead of stopping the run.
	Topology topology.Schedule
	// Workers selects engine parallelism (0/1 = serial).
	Workers int
	// Auditors are attached to the engine.
	Auditors []core.Auditor
	// SampleEvery records the discrepancy every k rounds into Series
	// (0 disables sampling).
	SampleEvery int
}

// Target returns a pointer to d for RunSpec.TargetDiscrepancy, so specs can
// request a target — including 0, perfect balance — inline.
func Target(d int64) *int64 { return &d }

// muZeroTol separates a genuine spectral gap from the solver's numerical
// floor (~10⁻¹⁵ on a disconnected graph, where λ₂ = 1 exactly). The
// smallest real gap in this library's range is the long cycle's Θ(1/n²),
// well above 10⁻¹⁰ for any simulable n.
const muZeroTol = 1e-10

// RunResult captures the outcome of a simulation.
type RunResult struct {
	// Rounds actually executed.
	Rounds int
	// Horizon is the round cap that was in force (T by default).
	Horizon int
	// BalancingTime is the paper's T for this instance.
	BalancingTime int
	// Gap is the eigenvalue gap µ of the balancing graph.
	Gap float64
	// InitialDiscrepancy is K.
	InitialDiscrepancy int64
	// FinalDiscrepancy is the discrepancy when the run stopped.
	FinalDiscrepancy int64
	// MinDiscrepancy is the best discrepancy seen at any round.
	MinDiscrepancy int64
	// TargetRound is the first round at which TargetDiscrepancy was reached,
	// or -1.
	TargetRound int
	// StoppedEarly reports whether the patience criterion fired.
	StoppedEarly bool
	// ReachedTarget reports whether TargetDiscrepancy was reached.
	ReachedTarget bool
	// Series holds the sampled observations when SampleEvery > 0: every
	// SampleEvery-th round, every shock and fault point regardless of the
	// interval, and the stopping round.
	Series []trace.Sample
	// Shocks holds one record per load injection of a dynamic run (Events),
	// in injection order, each with its recovery metrics.
	Shocks []trace.Shock
	// Faults holds one record per effective topology delta of a faulted run
	// (Topology), in event order, each with its recovery metrics.
	Faults []trace.FaultEvent
	// Metric names the convergence measure the scalar fields carry: "" for
	// diffusion runs (plain load discrepancy, the historical encoding, kept
	// implicit so existing consumers and archives are untouched) or the model
	// metric's name (e.g. "unconverged", "tokens") for model runs, where
	// InitialDiscrepancy, FinalDiscrepancy, MinDiscrepancy, and the Series
	// values are values of that metric.
	Metric string
	// Err is the first audit error, if any.
	Err error
}

// Run executes the spec by draining the streaming primitive (StreamInto) to
// completion. An invalid spec (nil graph or algorithm, wrong vector length, a
// balancer that declines the graph, a schedule addressing a node out of
// range) is reported through RunResult.Err rather than by panicking, so one
// bad spec cannot kill a loop over many. Panics from user-supplied code
// (balancers, schedules, auditors) are contained the same way — the
// containment lives in StreamInto, which this shares with every streaming
// consumer; the sweep path has its own (runSweepSpec).
func Run(spec RunSpec) (res RunResult) {
	for range StreamInto(context.Background(), spec, &res) {
	}
	return res
}

// prepareResult computes the simulator-independent result fields (K, the
// horizon in force, and for diffusion the gap and the paper's T; for models
// the metric name). ok is false when the spec is too broken to build a
// simulator from; res.Err carries the reason.
func prepareResult(spec RunSpec) (res RunResult, ok bool) {
	res = RunResult{TargetRound: -1}
	if res.Err = checkSpec(spec); res.Err != nil {
		return res, false
	}
	horizon := spec.MaxRounds
	if spec.Model != nil {
		res.Metric = spec.Metric.Name()
		res.InitialDiscrepancy = spec.Metric.Measure(spec.Initial)
		if horizon == 0 {
			horizon = spec.Model.DefaultHorizon(spec.Balancing.N())
		}
	} else {
		mu := spectral.Gap(spec.Balancing)
		res.Gap = mu
		res.InitialDiscrepancy = core.Discrepancy(spec.Initial)
		if mu > muZeroTol {
			res.BalancingTime = spectral.BalancingTime(spec.Balancing.N(), int(res.InitialDiscrepancy), mu)
		}
		if horizon == 0 {
			if mu <= muZeroTol {
				// λ₂ = 1 up to the solver's numerical floor: the
				// balancing graph is disconnected and the paper's horizon
				// T = O(log(Kn)/µ) is undefined (the raw float would inflate
				// T to ~10¹⁴ rounds).
				res.Err = fmt.Errorf("analysis: balancing graph %q has spectral gap µ ≈ 0 (disconnected); T is undefined, set MaxRounds explicitly",
					spec.Balancing.Name())
				return res, false
			}
			horizon = res.BalancingTime
		}
	}
	if spec.MaxRounds == 0 {
		if m := spec.HorizonMultiple; m > 1 {
			horizon *= m
		}
		if horizon < 1 {
			horizon = 1
		}
	}
	res.Horizon = horizon
	return res, true
}

// checkSpec rejects specs no simulator can be built from. Model specs keep
// Balancing (it sizes the run and labels results) but have no analogue of
// the diffusion-only machinery: schedules and engine-typed auditors.
func checkSpec(spec RunSpec) error {
	switch {
	case spec.Model == nil && (spec.Balancing == nil || spec.Algorithm == nil):
		return fmt.Errorf("analysis: spec needs a balancing graph and an algorithm")
	case spec.Model == nil:
		return nil
	case spec.Balancing == nil:
		return fmt.Errorf("analysis: model spec needs a balancing graph (it sizes the run and labels results)")
	case spec.Algorithm != nil:
		return fmt.Errorf("analysis: spec sets both Algorithm and Model; pick one")
	case spec.Metric == nil:
		return fmt.Errorf("analysis: model spec needs a Metric")
	case spec.Events != nil || spec.Topology != nil:
		return fmt.Errorf("analysis: model runs do not support workload or topology schedules")
	case len(spec.Auditors) > 0:
		return fmt.Errorf("analysis: spec auditors are engine-typed; model invariants are audited inside the model")
	}
	return nil
}

// newModel builds the spec's simulator holding its initial vector: the
// builder's model, or a diffusion engine with the spec's auditors attached.
// It is the one construction site behind StreamInto and the sweep runner.
func newModel(spec RunSpec) (core.Model, error) {
	if spec.Model != nil {
		return spec.Model.New(spec.Initial, spec.Workers)
	}
	opts := []core.Option{core.WithWorkers(spec.Workers)}
	for _, a := range spec.Auditors {
		opts = append(opts, core.WithAuditor(a))
	}
	eng, err := core.NewEngine(spec.Balancing, spec.Algorithm, spec.Initial, opts...)
	if err != nil {
		// A nil *Engine must not become a non-nil Model.
		return nil, err
	}
	return eng, nil
}

// RunToTarget is a convenience wrapper measuring the first round at which a
// discrepancy target is hit, with a hard cap. A target of 0 (perfect
// balance) is valid; an input already at or below the target reports
// TargetRound = 0.
func RunToTarget(b *graph.Balancing, algo core.Balancer, x1 []int64, target int64, cap int) RunResult {
	return Run(RunSpec{
		Balancing:         b,
		Algorithm:         algo,
		Initial:           x1,
		MaxRounds:         cap,
		TargetDiscrepancy: &target,
	})
}

// String renders a one-line summary for logs.
func (r RunResult) String() string {
	if r.Metric != "" {
		// Model runs: the discrepancy fields carry the model's metric, and the
		// diffusion-only spectral quantities are meaningless.
		return fmt.Sprintf("rounds=%d/%d %s=%d (min %d, initial %d)",
			r.Rounds, r.Horizon, r.Metric, r.FinalDiscrepancy, r.MinDiscrepancy, r.InitialDiscrepancy)
	}
	return fmt.Sprintf("rounds=%d/%d disc=%d (min %d) K=%d µ=%.4g T=%d",
		r.Rounds, r.Horizon, r.FinalDiscrepancy, r.MinDiscrepancy,
		r.InitialDiscrepancy, r.Gap, r.BalancingTime)
}
