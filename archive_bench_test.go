package detlb_test

// Archive analytics benchmarks: query evaluation over an indexed archive of
// 1000 cells (50 entries × 20 cells). The index is warmed before the timed
// loop, so the numbers isolate evaluation — filter matching, projection,
// and grouped aggregation — from disk I/O. scripts/bench.sh records them
// into BENCH_archive.json and bench_compare.sh gates regressions.

import (
	"fmt"
	"io"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// benchIndex seeds entries×20 synthetic cells into a fresh archive directory
// and returns a warmed index over it.
func benchIndex(b *testing.B, entries int) *archive.Index {
	b.Helper()
	arch, err := archive.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := range entries {
		// 5 graphs × 2 algorithms × 2 workloads = 20 cells per entry.
		fam, err := scenario.ParseFamily(
			"cycle:8;cycle:12;torus:3,2;hypercube:3;complete:8",
			"send-floor;rotor-router",
			"point:64;uniform:8",
			"", "")
		if err != nil {
			b.Fatal(err)
		}
		fam.Name = fmt.Sprintf("bench-%04d", i)
		digest, canonical, err := fam.Fingerprint()
		if err != nil {
			b.Fatal(err)
		}
		cells := fam.Scenarios()
		cols := make([]scenario.CellColumns, len(cells))
		results := make([]analysis.RunResult, len(cells))
		for j, c := range cells {
			cols[j] = c.Columns()
			results[j] = analysis.RunResult{
				Rounds: 10 + (i+j)%7, Horizon: 40, BalancingTime: 20, Gap: 0.25,
				InitialDiscrepancy: 64, FinalDiscrepancy: int64((i + j) % 3),
				MinDiscrepancy: int64((i + j) % 3), TargetRound: 5, ReachedTarget: true,
				Shocks: []trace.Shock{{
					Round: 8, Added: 32, Discrepancy: 32,
					PeakDiscrepancy: int64(20 + (i+j)%10),
					RecoveryRound:   10 + (i+j)%7, RecoveryRounds: 2 + (i+j)%7,
				}},
			}
		}
		doc, _, err := archive.BuildResultDoc(fam.Name, digest, cols, make([]analysis.RunSpec, len(cells)), results)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := arch.Put(digest, canonical, doc); err != nil {
			b.Fatal(err)
		}
	}
	ix := archive.NewIndex(arch)
	if err := ix.Refresh(); err != nil {
		b.Fatal(err)
	}
	if ix.Rows() != entries*20 {
		b.Fatalf("seeded %d rows, want %d", ix.Rows(), entries*20)
	}
	return ix
}

// BenchmarkArchiveQuery1000Filtered: a filtered projection over 1000 cells.
func BenchmarkArchiveQuery1000Filtered(b *testing.B) {
	ix := benchIndex(b, 50)
	q, err := archive.ParseQuerySpec(archive.QuerySpec{
		Where:  []string{"graph_kind=torus", "rounds>=12"},
		Select: []string{"digest", "cell", "rounds", "final_discrepancy"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := ix.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveQuery1000Grouped: grouped recovery aggregation over 1000
// cells — the acceptance query's shape.
func BenchmarkArchiveQuery1000Grouped(b *testing.B) {
	ix := benchIndex(b, 50)
	q, err := archive.ParseQuerySpec(archive.QuerySpec{
		Group: []string{"graph_kind"},
		Aggs:  []string{"count", "mean(shock_recovery_rounds_mean)", "max(shock_recovery_rounds_max)"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := ix.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveQuery1000CSV: full pipeline including CSV encoding.
func BenchmarkArchiveQuery1000CSV(b *testing.B) {
	ix := benchIndex(b, 50)
	q, err := archive.ParseQuerySpec(archive.QuerySpec{
		Select: []string{"digest", "graph", "algo", "rounds"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		res, err := ix.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
