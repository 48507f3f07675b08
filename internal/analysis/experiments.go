package analysis

import (
	"fmt"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/workload"
)

// Config tunes the experiment suite.
type Config struct {
	// Quick shrinks instance sizes for test runs; full sizes are used by
	// cmd/lbreport and the benchmarks.
	Quick bool
	// Workers selects engine parallelism.
	Workers int
	// Seed drives every randomized component.
	Seed int64
}

// table1Graphs returns the graph suite for E1, scaled by cfg.Quick.
func table1Graphs(cfg Config) []*graph.Balancing {
	if cfg.Quick {
		return []*graph.Balancing{
			graph.Lazy(graph.Cycle(32)),
			graph.Lazy(graph.Torus(2, 8)),
			graph.Lazy(graph.Hypercube(6)),
			graph.Lazy(graph.RandomRegular(128, 8, cfg.Seed)),
		}
	}
	return []*graph.Balancing{
		graph.Lazy(graph.Cycle(64)),
		graph.Lazy(graph.Torus(2, 16)),
		graph.Lazy(graph.Hypercube(9)),
		graph.Lazy(graph.RandomRegular(512, 8, cfg.Seed)),
	}
}

// table1Algorithms returns the algorithm suite of Table 1. Algorithms
// carrying per-run state (continuous mimic) are constructed fresh by the
// returned factories.
func table1Algorithms(cfg Config, b *graph.Balancing) []core.Balancer {
	d := b.Degree()
	algos := []core.Balancer{
		balancer.NewBiasedRounding(),
		balancer.NewRandomizedExtra(cfg.Seed),
		balancer.NewRandomizedRounding(cfg.Seed),
		balancer.NewContinuousMimic(),
		balancer.NewBoundedError(),
		balancer.NewSendFloor(),
		balancer.NewSendRound(),
		balancer.NewRotorRouter(),
		balancer.NewRotorRouterStar(),
	}
	if d >= 2 {
		algos = append(algos, balancer.NewGoodS(d/2+1))
	}
	return algos
}

// Table1 regenerates the paper's Table 1 empirically (experiment E1): for
// every algorithm row and every graph in the suite it reports the
// discrepancy after the paper's horizon T, normalized by d, together with
// the audited properties (measured cumulative δ, negative-load rounds).
func Table1(cfg Config) *Table {
	t := &Table{
		Title: "E1: Table 1 — discrepancy after O(T), point-mass workload",
		Header: []string{"algorithm", "graph", "n", "d", "µ", "T", "rounds",
			"disc", "disc/d", "max δ", "neg rounds"},
		Note: "disc = discrepancy at stop; max δ = largest cumulative per-node flow spread (Def 2.1); " +
			"neg rounds = rounds with a negative load (only baselines may have them)",
	}
	for _, b := range table1Graphs(cfg) {
		n := b.N()
		total := int64(8*n) + 7
		x1 := workload.PointMass(n, 0, total)
		for _, algo := range table1Algorithms(cfg, b) {
			fair := core.NewCumulativeFairnessAuditor(-1)
			neg := core.NewNegativeLoadCounter()
			res := Run(RunSpec{
				Balancing: b,
				Algorithm: algo,
				Initial:   x1,
				Patience:  patienceFor(n),
				Workers:   cfg.Workers,
				Auditors:  []core.Auditor{fair, neg},
			})
			if res.Err != nil {
				t.AddRow(algo.Name(), b.Graph().Name(), itoa(n), itoa(b.Degree()),
					fmt.Sprintf("%.3g", res.Gap), itoa(res.BalancingTime), itoa(res.Rounds),
					"ERR", res.Err.Error(), "", "")
				continue
			}
			t.AddRow(
				algo.Name(), b.Graph().Name(), itoa(n), itoa(b.Degree()),
				fmt.Sprintf("%.3g", res.Gap), itoa(res.BalancingTime), itoa(res.Rounds),
				i64toa(res.MinDiscrepancy),
				fmt.Sprintf("%.2f", float64(res.MinDiscrepancy)/float64(b.Degree())),
				i64toa(fair.MaxDelta), itoa(neg.Rounds),
			)
		}
	}
	return t
}

// patienceFor scales the early-stop window with the graph size.
func patienceFor(n int) int {
	p := 16 * n
	if p < 2000 {
		p = 2000
	}
	return p
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
