// Package trace defines the observation records of a run — the per-round
// Sample, the Shock and FaultEvent recovery records — in their one wire
// encoding, and exports sample series as CSV or JSON Lines, so experiment
// trajectories can be re-plotted outside Go. The round loop
// (analysis.streamRounds) builds these records directly; the stream
// endpoint, the archived result documents and the trajectory files all
// encode them as they are.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"detlb/internal/columns"
)

// Sample is one observation of a run: the discrepancy and load extrema after
// a completed round, or immediately after a schedule injection (Shock) or a
// topology event (Fault) between rounds. Discrepancy is max − min load on
// diffusion runs and the spec Metric's value on model runs.
type Sample struct {
	// Round is the number of completed rounds (0 is the initial state). A
	// shocked or faulted round yields more than one sample under the same
	// Round: the event's, then the next round's.
	Round       int   `json:"round"`
	Discrepancy int64 `json:"discrepancy"`
	Max         int64 `json:"max"`
	Min         int64 `json:"min"`
	// Shock, when non-nil, marks this sample as a dynamic-workload injection
	// point: it was recorded immediately after a load delta was applied
	// between rounds, and carries the net injected token count. The value can
	// legitimately be 0 (a pure migration such as churn), so presence — the
	// pointer — is the marker.
	Shock *int64 `json:"shock,omitempty"`
	// Fault, when non-nil, marks this sample as a topology-event point: it
	// was recorded immediately after link/node fault events were applied
	// between rounds. Every count inside can legitimately be 0 (e.g. a pure
	// restore has no failures), so presence — the pointer — is the marker,
	// mirroring Shock. A round carrying both yields the fault sample first:
	// the network changes before load arrives.
	Fault *FaultMark `json:"fault,omitempty"`
}

// FaultMark summarizes the topology event behind a Fault-marked sample.
type FaultMark struct {
	FailedLinks   int `json:"failed_links,omitempty"`
	RestoredLinks int `json:"restored_links,omitempty"`
	FailedNodes   int `json:"failed_nodes,omitempty"`
	RestoredNodes int `json:"restored_nodes,omitempty"`
	// Components is the live component count after the event (1 while the
	// live graph stays connected; it is always ≥ 1 and never omitted).
	Components int `json:"components"`
	// Stranded is the load removed with stranded node failures.
	Stranded int64 `json:"stranded,omitempty"`
}

// Shock records one load injection of a dynamic run and the recovery that
// followed it — the self-stabilization view of the paper's bound: after an
// adversarial perturbation, how many rounds until the discrepancy target is
// re-reached.
type Shock struct {
	// Round is the number of completed rounds when the delta was applied
	// (0 = before the first round); round Round+1 is the first to see it.
	Round int `json:"round"`
	// Added and Removed are the injected token totals: Σ of the positive
	// deltas and Σ of the negated negative deltas. A pure migration (churn)
	// has Added == Removed.
	Added   int64 `json:"added"`
	Removed int64 `json:"removed"`
	// Discrepancy is the discrepancy immediately after the injection.
	Discrepancy int64 `json:"discrepancy"`
	// PeakDiscrepancy is the maximum discrepancy observed from the injection
	// until recovery (or until the run ended).
	PeakDiscrepancy int64 `json:"peak_discrepancy"`
	// RecoveryRound is the first round after the injection whose
	// discrepancy was ≤ the run's target, or −1 (no target set, or the run
	// ended first). RecoveryRounds is RecoveryRound − Round.
	RecoveryRound  int `json:"recovery_round"`
	RecoveryRounds int `json:"recovery_rounds"`
}

// FaultEvent records one effective topology delta of a faulted run and the
// recovery that followed it — the robustness mirror of Shock. Recovery is
// judged on the *effective* discrepancy (the maximum per-component max−min
// over live components, core.Engine.EffectiveDiscrepancy): after a partition
// each side can still balance internally even though the global discrepancy
// is pinned by the imbalance across the cut, and that internal
// re-convergence is what graceful degradation means.
type FaultEvent struct {
	// Round is the number of completed rounds when the delta was applied
	// (0 = before the first round); round Round+1 is the first to run on the
	// changed graph.
	Round int `json:"round"`
	// FailedLinks/RestoredLinks/FailedNodes/RestoredNodes count the event's
	// effective changes (no-op events are not recorded at all).
	FailedLinks   int `json:"failed_links,omitempty"`
	RestoredLinks int `json:"restored_links,omitempty"`
	FailedNodes   int `json:"failed_nodes,omitempty"`
	RestoredNodes int `json:"restored_nodes,omitempty"`
	// Stranded is the load removed with stranded node failures by this
	// event; Redistributed the load moved from failing nodes to neighbors.
	Stranded      int64 `json:"stranded,omitempty"`
	Redistributed int64 `json:"redistributed,omitempty"`
	// Components is the number of live components right after the event.
	Components int `json:"components"`
	// Gap is the faulted eigenvalue gap of the post-event graph
	// (spectral.FaultedGap); ≈ 0 when the event disconnected it.
	Gap float64 `json:"gap"`
	// Discrepancy is the effective discrepancy immediately after the event;
	// PeakDiscrepancy the maximum effective discrepancy observed from the
	// event until recovery (or until the run ended).
	Discrepancy     int64 `json:"discrepancy"`
	PeakDiscrepancy int64 `json:"peak_discrepancy"`
	// RecoveryRound is the first round after the event whose effective
	// discrepancy was ≤ the run's target, or −1 (no target set, or the run
	// ended first). RecoveryRounds is RecoveryRound − Round.
	RecoveryRound  int `json:"recovery_round"`
	RecoveryRounds int `json:"recovery_rounds"`
	// UnreachableLoad is the load excess no amount of balancing can move off
	// its component at event time: Σ over live components of
	// max(0, total − size·⌈L/N⌉) with L, N the live totals. 0 while the live
	// graph stays connected.
	UnreachableLoad int64 `json:"unreachable_load,omitempty"`
}

// WriteCSV emits the series with a header row, one row per sample (shock
// and fault samples included, without their markers).
func WriteCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{columns.Round, columns.Discrepancy, columns.MaxLoad, columns.MinLoad}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range samples {
		rec := []string{
			strconv.Itoa(s.Round),
			strconv.FormatInt(s.Discrepancy, 10),
			strconv.FormatInt(s.Max, 10),
			strconv.FormatInt(s.Min, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// WriteSamplesJSONL emits one JSON object per sample.
func WriteSamplesJSONL(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: encode sample: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a series previously produced by WriteSamplesJSONL,
// preserving shock and fault markers exactly — the round-trip partner the
// recovery experiments re-plot from.
func ReadJSONL(rd io.Reader) ([]Sample, error) {
	var out []Sample
	dec := json.NewDecoder(rd)
	for i := 0; ; i++ {
		var s Sample
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode sample %d: %w", i, err)
		}
		out = append(out, s)
	}
}
