package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// The result document is the archived half of an archive entry: one record
// per expanded cell, in cell order. Every field is a deterministic function
// of the canonical scenario — no wall-clock times, no host details — so
// re-executing an archived scenario must reproduce the document
// bit-identically; that byte equality is the archive's regression contract.
// Field names come from the internal/columns registry (pinned by test);
// the encoding is json.MarshalIndent with two-space indent plus a trailing
// newline, and must never change — it is what the digests' bytes are
// compared against.

// CellResult is one cell's outcome: the canonical descriptor labels plus the
// RunResult fields. Its shocks, faults and sampled trajectory are the
// RunResult's own trace records (the same samples the stream endpoint sends
// and trace.ReadJSONL parses).
type CellResult struct {
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`
	Workload string `json:"workload"`
	Schedule string `json:"schedule,omitempty"`
	Topology string `json:"topology,omitempty"`
	// Metric names a model run's convergence metric; absent for diffusion
	// cells, so pre-model result documents re-encode byte-identically.
	Metric string `json:"metric,omitempty"`

	N         int `json:"n"`
	Degree    int `json:"d"`
	SelfLoops int `json:"self_loops"`

	Gap           float64 `json:"gap"`
	BalancingTime int     `json:"balancing_time"`
	Horizon       int     `json:"horizon"`
	Rounds        int     `json:"rounds"`
	InitialDisc   int64   `json:"initial_discrepancy"`
	FinalDisc     int64   `json:"final_discrepancy"`
	MinDisc       int64   `json:"min_discrepancy"`
	TargetRound   int     `json:"target_round"`
	StoppedEarly  bool    `json:"stopped_early"`
	ReachedTarget bool    `json:"reached_target"`

	Shocks []trace.Shock      `json:"shocks,omitempty"`
	Faults []trace.FaultEvent `json:"faults,omitempty"`
	Series []trace.Sample     `json:"series,omitempty"`
	Err    string             `json:"error,omitempty"`
}

// ResultDoc is the archived result document for one run.
type ResultDoc struct {
	Version int          `json:"version"`
	Name    string       `json:"name,omitempty"`
	Digest  string       `json:"digest"`
	Cells   []CellResult `json:"cells"`
}

// ResultVersion is the result document format version. Version 2 changed
// no field: it marks the gaps of non-analytic graphs as coming from the
// Lanczos solver, where version 1's came from power iteration. Store.Put
// still verifies a version-1 entry against a version-2 re-execution, with
// each gap held to the version-1 rule of v1GapAgrees (docs/archive.md).
const ResultVersion = 2

// The version-1 gap rule. Both solvers return 1 − θ for a Rayleigh quotient
// θ of P on the complement of the all-ones vector, and θ ≤ λ₂, so neither
// can understate µ. Version 2 stops within 10⁻¹⁰ of λ₂. Version 1's power
// iteration stopped once θ moved less than 10⁻¹² per step, or after 200000
// steps. That left µ too high by up to 10⁻⁵, and by up to 3.5% of µ, on
// graphs whose λ₂ is close to λ₃: faulted tori and generalized Petersen
// graphs, and slow mixers such as gp:1024,1. docs/archive.md lists the
// measurements.
const (
	// v1GapBelow is how far a version-1 gap may lie below the new one: the
	// new solver's tolerance.
	v1GapBelow = 1e-10
	// v1GapAboveRel and v1GapAboveAbs bound how far above it may lie: 10%
	// of the new gap, plus 10⁻⁶ for partitioned masks, where µ is 0.
	v1GapAboveRel = 0.1
	v1GapAboveAbs = 1e-6
)

// v1GapAgrees reports whether the archived version-1 gap old and the new
// gap cur are the same µ under the version-1 rule.
func v1GapAgrees(old, cur float64) bool {
	return old >= cur-v1GapBelow && old <= cur+v1GapAboveRel*cur+v1GapAboveAbs
}

// CellResultOf folds one cell's spec and result into its wire record. The
// labels are the canonical descriptor columns (not Balancing.Name()), so
// the document is recomputable from the scenario alone.
func CellResultOf(spec analysis.RunSpec, res analysis.RunResult, cols scenario.CellColumns) CellResult {
	c := CellResult{
		Graph:    cols.Graph,
		Algo:     cols.Algo,
		Workload: cols.Workload,
		Schedule: cols.Schedule,
		Topology: cols.Topology,
		Metric:   res.Metric,

		Gap:           res.Gap,
		BalancingTime: res.BalancingTime,
		Horizon:       res.Horizon,
		Rounds:        res.Rounds,
		InitialDisc:   res.InitialDiscrepancy,
		FinalDisc:     res.FinalDiscrepancy,
		MinDisc:       res.MinDiscrepancy,
		TargetRound:   res.TargetRound,
		StoppedEarly:  res.StoppedEarly,
		ReachedTarget: res.ReachedTarget,

		Shocks: res.Shocks,
		Faults: res.Faults,
		Series: res.Series,
	}
	if spec.Balancing != nil {
		c.N = spec.Balancing.N()
		c.Degree = spec.Balancing.Degree()
		c.SelfLoops = spec.Balancing.SelfLoops()
	}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	return c
}

// BuildResultDoc assembles and encodes the document. failures counts cells
// whose result carries an error.
func BuildResultDoc(name, digest string, cells []scenario.CellColumns, specs []analysis.RunSpec, results []analysis.RunResult) (doc []byte, failures int, err error) {
	d := ResultDoc{
		Version: ResultVersion,
		Name:    name,
		Digest:  digest,
		Cells:   make([]CellResult, len(results)),
	}
	for i, res := range results {
		d.Cells[i] = CellResultOf(specs[i], res, cells[i])
		if res.Err != nil {
			failures++
		}
	}
	data, err := encodeResultDoc(d)
	return data, failures, err
}

// encodeResultDoc is the document's one encoding: indented JSON plus a
// trailing newline.
func encodeResultDoc(d ResultDoc) ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("archive: encode result: %w", err)
	}
	return append(data, '\n'), nil
}

// verifyV1 reports whether fresh, a current-version result document,
// reproduces stored, an archived version-1 document of the same run: every
// field must be equal except version and the gaps (cells[].gap and
// cells[].faults[].gap), and each gap must agree with the stored one
// under v1GapAgrees. It returns nil when the run verifies and otherwise says why
// not.
func verifyV1(stored, fresh []byte) error {
	var old, cur ResultDoc
	if err := json.Unmarshal(stored, &old); err != nil {
		return fmt.Errorf("archived document does not decode: %v", err)
	}
	if old.Version != 1 {
		return fmt.Errorf("an archived version-%d document must match byte for byte", old.Version)
	}
	if err := json.Unmarshal(fresh, &cur); err != nil {
		return fmt.Errorf("new document does not decode: %v", err)
	}
	if cur.Version != ResultVersion {
		return fmt.Errorf("new document is version %d", cur.Version)
	}
	// Re-encoding must give back the archived bytes exactly; otherwise the
	// decode dropped something the comparison below would never see.
	if enc, err := encodeResultDoc(old); err != nil || !bytes.Equal(enc, stored) {
		return errors.New("archived document is not in canonical encoding")
	}
	if len(old.Cells) != len(cur.Cells) {
		return fmt.Errorf("%d cells, archived %d", len(cur.Cells), len(old.Cells))
	}
	// Carry the new gaps and version into the archived document; what is
	// left must then encode to the new bytes.
	for i := range old.Cells {
		o, c := &old.Cells[i], &cur.Cells[i]
		if err := takeGap(&o.Gap, c.Gap); err != nil {
			return fmt.Errorf("cell %d: %v", i, err)
		}
		if len(o.Faults) != len(c.Faults) {
			return fmt.Errorf("cell %d: %d fault events, archived %d", i, len(c.Faults), len(o.Faults))
		}
		for k := range o.Faults {
			if err := takeGap(&o.Faults[k].Gap, c.Faults[k].Gap); err != nil {
				return fmt.Errorf("cell %d fault %d: %v", i, k, err)
			}
		}
	}
	old.Version = cur.Version
	if enc, err := encodeResultDoc(old); err != nil || !bytes.Equal(enc, fresh) {
		return errors.New("fields other than the gaps differ")
	}
	return nil
}

// takeGap replaces the archived gap *old with the new one if they agree
// under the version-1 rule.
func takeGap(old *float64, cur float64) error {
	if !v1GapAgrees(*old, cur) {
		return fmt.Errorf("gap %v, archived %v: outside the version-1 rule", cur, *old)
	}
	*old = cur
	return nil
}
