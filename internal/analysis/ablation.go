package analysis

import (
	"fmt"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/workload"
)

// Ablations for two design choices (lbreport IDs ABL1, ABL2): how many
// self-loops are actually needed (the paper's open question 1), and whether
// the rotor-router's slot order matters.

// AblationSelfLoops (ABL1) sweeps d° on a fixed graph and workload: the
// paper requires d° ≥ d for claims (i)-(ii) and proves d° = 0 can be
// catastrophic (Thm 4.3); the sweep shows where the transition happens and
// what extra laziness costs in time. Runs are capped at a fixed round budget
// (not T, which grows with laziness) so columns are comparable.
func AblationSelfLoops(cfg Config) *Table {
	g := graph.Cycle(65) // odd cycle: the hard case for few self-loops
	if !cfg.Quick {
		g = graph.Cycle(129)
	}
	n := g.N()
	x1 := workload.PointMass(n, 0, int64(8*n)+5)
	budget := 200 * n
	t := &Table{
		Title: "ABL1: self-loop ablation — d° sweep on an odd cycle (paper's open question 1)",
		Header: []string{"d°", "d⁺", "lazy?", "algorithm", "rounds", "min disc",
			"disc ≤ 2d?"},
		Note: fmt.Sprintf("fixed budget %d rounds; d°=0 is the Theorem 4.3 danger zone "+
			"(adversarial starts lock at Ω(n); benign starts may still balance)", budget),
	}
	for _, loops := range []int{0, 1, 2, 4, 8} {
		b := graph.WithLoops(g, loops)
		res := Run(RunSpec{
			Balancing: b,
			Algorithm: balancer.NewRotorRouter(),
			Initial:   x1,
			MaxRounds: budget,
			Patience:  16 * n,
			Workers:   cfg.Workers,
		})
		ok := "yes"
		if res.MinDiscrepancy > int64(2*g.Degree()) {
			ok = "no"
		}
		t.AddRow(itoa(loops), itoa(g.Degree()+loops),
			fmt.Sprintf("%v", loops >= g.Degree()), "rotor-router",
			itoa(res.Rounds), i64toa(res.MinDiscrepancy), ok)
	}
	return t
}

// AblationRotorOrder (ABL2) compares rotor slot orders: interleaved
// (edge, loop, edge, loop), edges-first and loops-first. Cumulative fairness
// holds for any fixed order, so Theorem 2.3 predicts similar discrepancy —
// the ablation confirms the design choice is free.
func AblationRotorOrder(cfg Config) *Table {
	g := graph.RandomRegular(128, 4, cfg.Seed)
	if !cfg.Quick {
		g = graph.RandomRegular(256, 4, cfg.Seed)
	}
	n := g.N()
	d := g.Degree()
	b := graph.Lazy(g)
	x1 := workload.PointMass(n, 0, int64(8*n)+5)
	t := &Table{
		Title:  "ABL2: rotor slot-order ablation — interleaved vs edges-first vs loops-first",
		Header: []string{"order", "rounds", "min disc", "measured δ"},
		Note:   "any fixed cyclic order is cumulatively 1-fair; discrepancies should be comparable",
	}
	orders := map[string]func() [][]int{
		"interleaved": func() [][]int { return nil }, // default
		"edges-first": func() [][]int {
			return uniformOrders(n, sequence(0, 2*d))
		},
		"loops-first": func() [][]int {
			ord := append(sequence(d, 2*d), sequence(0, d)...)
			return uniformOrders(n, ord)
		},
	}
	for _, name := range []string{"interleaved", "edges-first", "loops-first"} {
		rr := &balancer.RotorRouter{Order: orders[name]()}
		fair := core.NewCumulativeFairnessAuditor(-1)
		res := Run(RunSpec{
			Balancing: b,
			Algorithm: rr,
			Initial:   x1,
			Patience:  16 * n,
			Workers:   cfg.Workers,
			Auditors:  []core.Auditor{fair},
		})
		t.AddRow(name, itoa(res.Rounds), i64toa(res.MinDiscrepancy), i64toa(fair.MaxDelta))
	}
	return t
}

func sequence(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		s = append(s, v)
	}
	return s
}

func uniformOrders(n int, order []int) [][]int {
	out := make([][]int, n)
	for u := range out {
		out[u] = append([]int(nil), order...)
	}
	return out
}
