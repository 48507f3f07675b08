package spectral

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"detlb/internal/graph"
)

// denseTol is the differential tests' bound on |Δλ₂| between the Lanczos
// solve and the dense Jacobi ground truth.
const denseTol = 1e-10

// plain rebuilds g's adjacency without its analytic ν₂, so Lambda2 must
// solve for λ₂ instead of reading the closed form.
func plain(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	adj := make([][]int, g.N())
	for u := range adj {
		adj[u] = append([]int(nil), g.Neighbors(u)...)
	}
	p, err := graph.New("plain-"+g.Name(), adj)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAgainstDense compares the solver's λ₂ with the second eigenvalue of
// the dense Jacobi spectrum of the same transition matrix.
func checkAgainstDense(t *testing.T, b *graph.Balancing) {
	t.Helper()
	eig := SpectrumDense(b)
	got, st := lanczosLambda2(b, nil, lanczosBasis, lanczosTol)
	if d := math.Abs(got - eig[1]); d > denseTol {
		t.Fatalf("%s d°=%d: Lanczos λ₂ = %.17g, dense %.17g (|Δ| = %.3g, %+v)",
			b.Name(), b.SelfLoops(), got, eig[1], d, st)
	}
	if st.basis > b.N()-1 {
		t.Fatalf("%s: basis of %d vectors exceeds the dimension %d of 1^⊥", b.Name(), st.basis, b.N()-1)
	}
}

func TestLambda2MatchesDenseOnRandomRegular(t *testing.T) {
	for _, n := range []int{16, 32, 64, 128} {
		for _, d := range []int{3, 4, 8} {
			g := graph.RandomRegular(n, d, 1)
			for _, loops := range []int{d, 0} {
				t.Run(fmt.Sprintf("random:%d,%d,1/d°=%d", n, d, loops), func(t *testing.T) {
					checkAgainstDense(t, graph.WithLoops(g, loops))
				})
			}
		}
	}
}

// TestLambda2MatchesDenseOnStructuredGraphs covers the spectra that break a
// naive solver: eigenvalues down to −1 (the even cycle and K_{k,k} without
// self-loops, where λ₂ is not the largest in modulus), a λ₂ of high
// multiplicity (Petersen), K9, whose restriction to 1^⊥ is a multiple of
// the identity — the Krylov space is invariant after one step — and n = 2,
// where 1^⊥ is one-dimensional.
func TestLambda2MatchesDenseOnStructuredGraphs(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.WithLoops(plain(t, graph.Cycle(12)), 0),
		graph.Lazy(plain(t, graph.Cycle(12))),
		graph.WithLoops(plain(t, graph.CompleteBipartite(4)), 0),
		graph.Lazy(plain(t, graph.Petersen())),
		graph.WithLoops(plain(t, graph.Petersen()), 0),
		graph.Lazy(plain(t, graph.Complete(9))),
		graph.WithLoops(plain(t, graph.Complete(9)), 0),
		graph.Lazy(plain(t, graph.Complete(2))),
		graph.WithLoops(plain(t, graph.Complete(2)), 0),
	} {
		checkAgainstDense(t, b)
	}
}

// TestSingleNodeNeverReachesTheSolver: n = 1 has no second eigenvalue, and
// no graph has one node — graph.New rejects both one-node adjacencies, the
// empty neighbor list and the self-arc — so the solver needs no case for it.
func TestSingleNodeNeverReachesTheSolver(t *testing.T) {
	for _, adj := range [][][]int{{{}}, {{0}}} {
		if _, err := graph.New("single", adj); err == nil {
			t.Fatalf("graph.New accepted the one-node adjacency %v", adj)
		}
	}
}

// faultedDense materializes the faulted transition matrix P' column by
// column through the solver's own matvec.
func faultedDense(b *graph.Balancing, alive []bool) *Dense {
	n := b.N()
	m := NewDense(n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := range n {
		e[j] = 1
		applyP(b, alive, col, e)
		e[j] = 0
		for i, v := range col {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestFaultedGapMatchesDense(t *testing.T) {
	rr := graph.RandomRegular(32, 4, 1)
	for _, tc := range []struct {
		b     *graph.Balancing
		links [][2]int
	}{
		{graph.Lazy(rr), [][2]int{{0, rr.Neighbors(0)[0]}}},
		{graph.WithLoops(rr, 0), [][2]int{{0, rr.Neighbors(0)[0]}, {7, rr.Neighbors(7)[2]}}},
		{graph.Lazy(graph.CliqueCirculant(24, 4)), [][2]int{{0, 1}, {0, 23}, {5, 6}}},
		{graph.Lazy(graph.Cycle(16)), [][2]int{{3, 4}}},
		// Partitioned: λ₂ = 1 exactly.
		{graph.Lazy(graph.Cycle(16)), [][2]int{{7, 8}, {15, 0}}},
	} {
		alive := failArcs(t, tc.b, tc.links)
		want := 1 - symmetricSpectrum(faultedDense(tc.b, alive))[1]
		got := FaultedGap(tc.b, alive)
		if d := math.Abs(got - want); d > denseTol {
			t.Fatalf("%s minus %v: faulted gap %.17g, dense %.17g (|Δ| = %.3g)", tc.b.Name(), tc.links, got, want, d)
		}
	}
}

// TestPartitionedGapBelowZeroTolerance: a partitioned graph's gap must stay
// below the harness's 10⁻¹⁰ threshold for "disconnected" (analysis
// muZeroTol), pristine or through a fault mask, so a default-horizon run
// still errors instead of running ~10¹⁴ rounds.
func TestPartitionedGapBelowZeroTolerance(t *testing.T) {
	const muZeroTol = 1e-10
	b := graph.Lazy(graph.Cycle(64))
	alive := failArcs(t, b, [][2]int{{20, 21}, {63, 0}})
	if mu := FaultedGap(b, alive); math.Abs(mu) >= muZeroTol {
		t.Fatalf("partitioned cycle: µ = %v, want |µ| < %v", mu, muZeroTol)
	}
	adj := make([][]int, 10)
	for u := range adj {
		base := u / 5 * 5
		for v := base; v < base+5; v++ {
			if v != u {
				adj[u] = append(adj[u], v)
			}
		}
	}
	twoK5, err := graph.New("two-K5", adj)
	if err != nil {
		t.Fatal(err)
	}
	if mu := GapFresh(graph.Lazy(twoK5)); math.Abs(mu) >= muZeroTol {
		t.Fatalf("two disjoint K5: µ = %v, want |µ| < %v", mu, muZeroTol)
	}
}

// TestLanczosBasisBoundedAndAccurate runs the production solve on a graph
// large enough to restart, and checks that the basis never exceeds m and
// that λ₂ matches a reference solve with a basis twice as large and a
// thousandfold tighter tolerance.
func TestLanczosBasisBoundedAndAccurate(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(4096, 8, 1))
	got, st := lanczosLambda2(b, nil, lanczosBasis, lanczosTol)
	if st.basis > lanczosBasis {
		t.Fatalf("basis grew to %d vectors, cap %d", st.basis, lanczosBasis)
	}
	if st.restarts == 0 {
		t.Fatalf("expected the 4096-node solve to restart at m = %d: %+v", lanczosBasis, st)
	}
	ref, refSt := lanczosLambda2(b, nil, 2*lanczosBasis, lanczosTol/1000)
	if d := math.Abs(got - ref); d > 1e-12 {
		t.Fatalf("λ₂ = %.17g, reference %.17g (|Δ| = %.3g; %+v vs %+v)", got, ref, d, st, refSt)
	}
}

// TestSolveMemoryWithinSolveWords pins the solver's allocations to
// SolveWords, the figure admission control caps, on a graph that fills the
// basis and on one smaller than it.
func TestSolveMemoryWithinSolveWords(t *testing.T) {
	for _, n := range []int{4096, 64} {
		b := graph.Lazy(graph.RandomRegular(n, 8, 1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		GapFresh(b)
		runtime.ReadMemStats(&after)
		// Beyond the counted words: the seeded source's state, ~5 KiB.
		const slack = 16 << 10
		if got, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(SolveWords(n))+slack; got > limit {
			t.Errorf("n = %d: the solve allocated %d bytes, SolveWords allows %d", n, got, limit)
		}
	}
}

func TestLanczosDeterministic(t *testing.T) {
	g := graph.RandomRegular(200, 6, 4)
	a, _ := lanczosLambda2(graph.Lazy(g), nil, lanczosBasis, lanczosTol)
	// A fresh graph instance: no shared state, the same bits.
	b, _ := lanczosLambda2(graph.Lazy(graph.RandomRegular(200, 6, 4)), nil, lanczosBasis, lanczosTol)
	if a != b {
		t.Fatalf("two solves on the same graph differ: %.17g vs %.17g", a, b)
	}
}
