package analysis

import (
	"context"
	"fmt"
	"iter"

	"detlb/internal/core"
	"detlb/internal/spectral"
	"detlb/internal/trace"
)

// Stream executes the spec as a lazy per-round sequence — the primitive the
// whole harness is expressed over: Run is Stream drained to completion, and
// the sweep runner drains the same core with a reused engine.
//
// The sequence yields the initial state as round 0, then one sample per
// completed round (plus one per schedule injection, marked Shock, and one
// per topology event, marked Fault), honoring the spec's horizon, target,
// and patience exactly like Run. Breaking out of the loop stops the run at
// that round and releases the engine; a canceled ctx stops it within one
// round. Each iteration of the returned sequence re-executes the spec from
// the start.
//
// Stream discards the RunResult bookkeeping; use StreamInto to observe
// rounds and still collect the final result (including spec errors, which
// end the sequence immediately and are only visible through the result).
func Stream(ctx context.Context, spec RunSpec) iter.Seq[trace.Sample] {
	return func(yield func(trace.Sample) bool) {
		var res RunResult
		StreamInto(ctx, spec, &res)(yield)
	}
}

// StreamInto is Stream writing the run's bookkeeping into res as it goes:
// when the sequence ends — run complete, consumer break, or cancellation —
// res holds exactly what Run would have returned for the rounds executed.
// res is reset at the start of each iteration of the sequence.
//
// Panics from user-supplied code (balancers, schedules, auditors) are
// contained into res.Err, matching Run and the sweep path, so one bad spec
// cannot kill a loop over many streams; a panic in the consumer's own loop
// body is not swallowed — it propagates out of the range statement.
func StreamInto(ctx context.Context, spec RunSpec, res *RunResult) iter.Seq[trace.Sample] {
	return func(yield func(trace.Sample) bool) {
		inYield := false
		defer func() {
			if r := recover(); r != nil {
				if inYield {
					// The panic traveled through yield: it is the consumer's,
					// not ours to report.
					panic(r)
				}
				res.Err = fmt.Errorf("analysis: run panicked: %v", r)
			}
		}()
		r, ok := prepareResult(spec)
		*res = r
		if !ok {
			return
		}
		m, err := newModel(spec)
		if err != nil {
			res.Err = err
			return
		}
		defer m.Close()
		streamRounds(ctx, spec, m, res)(func(s trace.Sample) bool {
			inYield = true
			ok := yield(s)
			inYield = false
			return ok
		})
	}
}

// streamCanceledError is the round loop's cancellation report. It is a
// distinct type so the sweep path can recognize it and relabel in-flight
// cancellations with the sweep's own wording — one user action, one message.
type streamCanceledError struct{ cause error }

func (e *streamCanceledError) Error() string {
	return "analysis: stream canceled: " + e.cause.Error()
}

func (e *streamCanceledError) Unwrap() error { return e.cause }

// streamRounds drives a simulator already holding the spec's initial vector
// through the round loop, yielding one trace.Sample per observation and
// folding the full RunResult bookkeeping into res. It is the single
// round-loop implementation for diffusion engines and models alike: Run (a
// fresh simulator per call), the sweep runner (simulators reused across specs
// via Reset), and every streaming consumer drain it, so their results are
// bit-identical to each other. The samples it yields and the ones it keeps
// in res.Series are the same records.
//
// Each observation takes one pass over the state (core.Extrema); the value
// tracked is the load discrepancy max − min on diffusion runs and
// spec.Metric's value on model runs, where Sample.Discrepancy carries the
// metric and Max/Min the state extrema.
//
// With spec.Events set the loop becomes the dynamic-workload harness: before
// each round the schedule's delta is injected through Model.ApplyDelta and
// recorded as a Shock, and the discrepancy target — instead of stopping the
// run — defines when each shock has "recovered". All injections are pure
// functions of (round, loads), so the dynamic trajectory inherits the
// engine's bit-identical determinism across worker counts and across the
// Run/Sweep/Stream entry points. Topology schedules need the diffusion
// engine itself; prepareResult rejects them (and workload schedules) on
// model specs.
func streamRounds(ctx context.Context, spec RunSpec, m core.Model, res *RunResult) iter.Seq[trace.Sample] {
	return func(yield func(trace.Sample) bool) {
		eng, _ := m.(*core.Engine)
		var metric core.Metric
		if spec.Model != nil {
			metric = spec.Metric
		}
		// observe measures the current state after `round` completed rounds:
		// its tracked value and extrema.
		observe := func(round int) trace.Sample {
			lo, hi := core.Extrema(m.State())
			s := trace.Sample{Round: round, Discrepancy: hi - lo, Max: hi, Min: lo}
			if metric != nil {
				s.Discrepancy = metric.Measure(m.State())
			}
			return s
		}
		target, targetSet := int64(0), false
		if spec.TargetDiscrepancy != nil {
			target, targetSet = *spec.TargetDiscrepancy, true
		}
		initial := observe(0)
		best := initial.Discrepancy
		res.MinDiscrepancy = best
		res.FinalDiscrepancy = initial.Discrepancy
		horizon := res.Horizon

		if targetSet && initial.Discrepancy <= target {
			// The initial vector already meets the target: a time-to-target
			// measurement is 0 rounds, not "whenever the trajectory next
			// happens to dip under it". A topology schedule, like a workload
			// one, makes the run dynamic: it continues to its horizon.
			res.ReachedTarget = true
			res.TargetRound = 0
			if spec.Events == nil && spec.Topology == nil {
				if spec.SampleEvery > 0 {
					// The stopping state joins the series here too, so a
					// sampled spec always produces a (one-point) trajectory.
					res.Series = append(res.Series, initial)
				}
				yield(initial)
				return
			}
		}

		// Round 0 — the state before the first round — opens every stream.
		if !yield(initial) {
			if spec.SampleEvery > 0 {
				// A consumer break is a stopping round like any other: a
				// sampled spec always produces a (one-point) trajectory.
				res.Series = append(res.Series, initial)
			}
			return
		}

		// patienceBest/lastImprovement drive early stopping; unlike best they
		// restart at every shock and at every fault. openFrom indexes the
		// first shock still awaiting recovery — recoveries close all open
		// shocks at once, so the open ones always form a suffix of
		// res.Shocks. openFaultFrom mirrors it for fault events.
		patienceBest := initial.Discrepancy
		lastImprovement := 0
		openFrom := 0
		openFaultFrom := 0
		var delta []int64
		if spec.Events != nil {
			delta = make([]int64, spec.Balancing.N())
		}

		closeShocks := func(round int) {
			for i := openFrom; i < len(res.Shocks); i++ {
				res.Shocks[i].RecoveryRound = round
				res.Shocks[i].RecoveryRounds = round - res.Shocks[i].Round
			}
			openFrom = len(res.Shocks)
		}

		closeFaults := func(round int) {
			for i := openFaultFrom; i < len(res.Faults); i++ {
				res.Faults[i].RecoveryRound = round
				res.Faults[i].RecoveryRounds = round - res.Faults[i].Round
			}
			openFaultFrom = len(res.Faults)
		}

		// updateFaultPeaks folds the current effective discrepancy into every
		// open fault event's peak, with the same backward-walk amortization as
		// updatePeaks below.
		updateFaultPeaks := func(eff int64) {
			for i := len(res.Faults) - 1; i >= openFaultFrom; i-- {
				if res.Faults[i].PeakDiscrepancy >= eff {
					break
				}
				res.Faults[i].PeakDiscrepancy = eff
			}
		}

		// updatePeaks folds disc into every open shock's peak. Open shocks
		// form a suffix with nested observation windows, so their peaks are
		// non-increasing in shock index — walking backward and stopping at the
		// first peak already ≥ disc updates exactly the shocks that need it,
		// keeping targetless runs with per-round schedules (arbitrarily many
		// open shocks) amortized O(1) per round instead of quadratic.
		updatePeaks := func(disc int64) {
			for i := len(res.Shocks) - 1; i >= openFrom; i-- {
				if res.Shocks[i].PeakDiscrepancy >= disc {
					break
				}
				res.Shocks[i].PeakDiscrepancy = disc
			}
		}

		// finish records the stopping state s, appending it to the series
		// when the stop fell between sampling points (the interval loop alone
		// would drop the round that actually stopped the run).
		finish := func(s trace.Sample, sampled bool) {
			res.Rounds = s.Round
			res.FinalDiscrepancy = s.Discrepancy
			res.MinDiscrepancy = best
			if spec.SampleEvery > 0 && !sampled {
				res.Series = append(res.Series, s)
			}
		}

		// inject applies the schedule's delta after `completed` rounds and
		// yields the post-injection sample; it reports whether the stream's
		// consumer wants to continue, finalizing the bookkeeping at the
		// post-injection state when the consumer breaks on the shock.
		inject := func(completed int) bool {
			for i := range delta {
				delta[i] = 0
			}
			if !spec.Events.DeltaInto(completed, m.State(), delta) {
				return true
			}
			var added, removed int64
			for _, d := range delta {
				if d > 0 {
					added += d
				} else {
					removed -= d
				}
			}
			if added == 0 && removed == 0 {
				return true
			}
			if err := m.ApplyDelta(delta); err != nil {
				// Unreachable by construction (delta has N entries), but a
				// schedule bug must not pass silently.
				panic(err)
			}
			s := observe(completed)
			injected := added - removed
			s.Shock = &injected
			// Shocks can overlap: an injection while earlier shocks are still
			// unrecovered is part of their observation window, so the
			// post-injection spike counts toward their peaks too.
			updatePeaks(s.Discrepancy)
			res.Shocks = append(res.Shocks, trace.Shock{
				Round: completed, Added: added, Removed: removed,
				Discrepancy: s.Discrepancy, PeakDiscrepancy: s.Discrepancy,
				RecoveryRound: -1, RecoveryRounds: -1,
			})
			if s.Discrepancy < best {
				best = s.Discrepancy
				res.MinDiscrepancy = best
			}
			patienceBest = s.Discrepancy
			lastImprovement = completed
			if spec.SampleEvery > 0 {
				// Shock points are recorded whenever sampling is on,
				// regardless of the interval, so every injection is marked.
				res.Series = append(res.Series, s)
			}
			if targetSet && s.Discrepancy <= target {
				// The injection itself kept (or restored) the target: the
				// shocks recover instantly, and a first-ever reach between
				// rounds is attributed to the round just completed, mirroring
				// the round loop's bookkeeping.
				closeShocks(completed)
				if !res.ReachedTarget {
					res.ReachedTarget = true
					res.TargetRound = completed
				}
			}
			if !yield(s) {
				// The consumer stopped on the shock: the injection is already
				// recorded (Shocks, and a Shock-marked Series sample when
				// sampling), so finalize at the post-injection state without
				// appending a second sample for the same round.
				finish(s, true)
				return false
			}
			return true
		}

		// last tracks the most recently completed round's state so the
		// horizon-exhausted, canceled and fault-error exits can finalize
		// without an extra pass over the loads.
		last := initial
		lastSampled := false

		// injectFault applies the topology schedule's delta after `completed`
		// rounds — before the same round's workload injection — records the
		// FaultEvent, and yields the post-event sample. It reports whether
		// the stream should continue; on a schedule error (a generator
		// addressing a node out of range) or a consumer break it finalizes
		// the bookkeeping itself.
		injectFault := func(completed int) bool {
			tdelta, fire := spec.Topology.DeltaAt(completed, spec.Balancing.Graph())
			if !fire || tdelta.Empty() {
				return true
			}
			ch, err := eng.ApplyTopologyDelta(tdelta)
			if err != nil {
				res.Err = fmt.Errorf("analysis: topology schedule at round %d: %w", completed, err)
				finish(last, lastSampled)
				return false
			}
			if !ch.Changed() {
				return true
			}
			s := observe(completed)
			_, comps := eng.Components()
			s.Fault = &trace.FaultMark{
				FailedLinks: ch.FailedLinks, RestoredLinks: ch.RestoredLinks,
				FailedNodes: ch.FailedNodes, RestoredNodes: ch.RestoredNodes,
				Components: comps, Stranded: ch.Stranded,
			}
			eff := eng.EffectiveDiscrepancy()
			// A redistribution (or the next fault of a flap) can spike the
			// global discrepancy inside open shock windows too.
			updatePeaks(s.Discrepancy)
			updateFaultPeaks(eff)
			res.Faults = append(res.Faults, trace.FaultEvent{
				Round:       completed,
				FailedLinks: ch.FailedLinks, RestoredLinks: ch.RestoredLinks,
				FailedNodes: ch.FailedNodes, RestoredNodes: ch.RestoredNodes,
				Stranded: ch.Stranded, Redistributed: ch.Redistributed,
				Components:  comps,
				Gap:         spectral.FaultedGap(spec.Balancing, eng.ArcAlive()),
				Discrepancy: eff, PeakDiscrepancy: eff,
				RecoveryRound: -1, RecoveryRounds: -1,
				UnreachableLoad: eng.UnreachableLoad(),
			})
			if s.Discrepancy < best {
				best = s.Discrepancy
				res.MinDiscrepancy = best
			}
			// A fault restarts the patience clock: the pre-fault minimum is
			// not a meaningful baseline while the system re-converges on the
			// changed graph.
			patienceBest = s.Discrepancy
			lastImprovement = completed
			if spec.SampleEvery > 0 {
				// Like shock points, fault points are recorded whenever
				// sampling is on.
				res.Series = append(res.Series, s)
			}
			if targetSet && eff <= target {
				// A restore (or a stranding that removed the outliers) can
				// itself re-reach the effective target: the faults recover
				// instantly.
				closeFaults(completed)
			}
			if !yield(s) {
				finish(s, true)
				return false
			}
			return true
		}

		for round := 1; round <= horizon; round++ {
			if ctx.Err() != nil {
				// Per-round cancellation: the run stops before starting
				// another round, keeping every completed round's bookkeeping.
				res.Err = &streamCanceledError{cause: context.Cause(ctx)}
				// lastSampled alone decides the final-sample append: a cancel
				// before the first round records the round-0 state, matching
				// the consumer-break-at-round-0 path — a sampled spec always
				// produces a trajectory.
				finish(last, lastSampled)
				return
			}
			if spec.Topology != nil && !injectFault(round-1) {
				// injectFault already finalized at the post-event state.
				return
			}
			if spec.Events != nil && !inject(round-1) {
				// inject already finalized at the post-injection state.
				return
			}
			if err := m.Step(); err != nil {
				// The failed round did execute (state is left advanced for
				// debugging), so its discrepancy joins the bookkeeping like
				// any other stopping round.
				res.Err = err
				s := observe(round)
				if s.Discrepancy < best {
					best = s.Discrepancy
				}
				finish(s, false)
				yield(s)
				return
			}
			s := observe(round)
			disc := s.Discrepancy
			sampled := false
			if spec.SampleEvery > 0 && round%spec.SampleEvery == 0 {
				res.Series = append(res.Series, s)
				sampled = true
			}
			if disc < best {
				best = disc
			}
			if disc < patienceBest {
				patienceBest = disc
				lastImprovement = round
			}
			updatePeaks(disc)
			// Fault recovery is judged on the effective (per-component)
			// discrepancy; computing it is only worth a components lookup
			// while fault events are actually open.
			if len(res.Faults) > openFaultFrom {
				eff := eng.EffectiveDiscrepancy()
				updateFaultPeaks(eff)
				if targetSet && eff <= target {
					closeFaults(round)
				}
			}
			if targetSet && disc <= target {
				closeShocks(round)
				if !res.ReachedTarget {
					res.ReachedTarget = true
					res.TargetRound = round
				}
				if spec.Events == nil && spec.Topology == nil {
					finish(s, sampled)
					yield(s)
					return
				}
			}
			if spec.Patience > 0 && round-lastImprovement >= spec.Patience {
				res.StoppedEarly = true
				finish(s, sampled)
				yield(s)
				return
			}
			last, lastSampled = s, sampled
			if round < horizon {
				if !yield(s) {
					finish(s, sampled)
					return
				}
			}
		}
		// Horizon exhausted — the normal exit for every dynamic run (the
		// target defines recovery, not termination). The final state joins the
		// series like any other stopping round when it fell mid-interval.
		// last is the horizon round's state — or the initial one under a
		// non-positive explicit cap, which runs no round at all.
		last.Round = horizon
		finish(last, lastSampled || horizon < 1)
		if horizon >= 1 {
			yield(last)
		}
	}
}
