// Package spectral computes the spectral quantities the paper's analysis is
// phrased in: the transition matrix P of the balancing graph G+, its second
// largest eigenvalue λ₂, the eigenvalue gap µ = 1 − λ₂, and the balancing
// time T = O(log(Kn)/µ) after which the theorems' discrepancy bounds apply.
//
// For a d-regular graph G with d° self-loops per node,
//
//	P(u,v) = 1/d⁺ for (u,v) ∈ E, P(u,u) = d°/d⁺, d⁺ = d + d°,
//
// so P = (d°/d⁺)·I + (d/d⁺)·(A/d) and every eigenvalue of P is
// λ = (d° + d·ν)/d⁺ for an eigenvalue ν of the normalized adjacency A/d.
// This affine correspondence lets the package reuse a family's analytic ν₂
// (recorded on graph.Graph by its constructor) and fall back to a Lanczos
// solve otherwise: a deterministic, fully reorthogonalized Lanczos iteration
// on P restricted to the complement of the all-ones vector, which needs tens
// to a few hundred matrix-vector products where power iteration needs
// O(1/µ). Solver results are memoized per (graph, d°) pair — and per alive
// mask under faults — behind weak references, so harness sweeps pay the
// solve once per graph rather than once per run.
package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"weak"

	"detlb/internal/graph"
)

// Operator is the transition matrix P of a balancing graph, exposed as a
// matrix-free matvec so that no O(n²) storage is required.
type Operator struct {
	b *graph.Balancing
}

// NewOperator wraps the balancing graph's transition matrix.
func NewOperator(b *graph.Balancing) *Operator {
	return &Operator{b: b}
}

// N returns the dimension of the operator.
func (op *Operator) N() int { return op.b.N() }

// Apply computes dst = P·x. dst and x must have length N and must not alias.
// The matvec walks the graph's flat CSR adjacency — one contiguous int32
// array — rather than the ragged per-node neighbor slices.
func (op *Operator) Apply(dst, x []float64) {
	n := op.b.N()
	if len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("spectral: dimension mismatch: n=%d len(dst)=%d len(x)=%d", n, len(dst), len(x)))
	}
	applyP(op.b, nil, dst, x)
}

// Entry returns P(u,v), counting parallel edges. O(d).
func (op *Operator) Entry(u, v int) float64 {
	if u == v {
		return float64(op.b.SelfLoops()) / float64(op.b.DegreePlus())
	}
	cnt := 0
	for _, w := range op.b.Graph().Neighbors(u) {
		if w == v {
			cnt++
		}
	}
	return float64(cnt) / float64(op.b.DegreePlus())
}

// Lambda2 returns the second largest eigenvalue of P (by value, not modulus).
// It uses the family's analytic ν₂ when available, else the Lanczos solve
// (lanczosLambda2) on P restricted to the space orthogonal to the all-ones
// vector; its largest eigenvalue there is λ₂, however negative the rest of
// the spectrum.
//
// Solver results are memoized per (graph, d°) pair: the solve is
// deterministic (fixed seed, serial sums), so a sweep running many specs on
// the same balancing graph pays it exactly once (BENCH_spectral.json records
// its cost), and distinct Balancing wrappers over the same Graph share the
// entry. The cache holds only weak references — an entry is evicted when its
// graph is garbage collected, so long-lived processes generating graphs on
// the fly do not accumulate it.
func Lambda2(b *graph.Balancing) float64 {
	d := float64(b.Degree())
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	if nu2, ok := b.Graph().Nu2(); ok {
		return (self + d*nu2) / dplus
	}
	key := lambda2Key{g: weak.Make(b.Graph()), selfLoops: b.SelfLoops()}
	return memoLambda2(b.Graph(), key, func() float64 { return solveLambda2(b, nil) })
}

// Gap returns the eigenvalue gap µ = 1 − λ₂ of the balancing graph,
// memoized per (graph, d°) pair (see Lambda2).
func Gap(b *graph.Balancing) float64 {
	return 1 - Lambda2(b)
}

// GapFresh recomputes the gap from scratch, bypassing the per-graph cache:
// the uncached solve, for benchmarking the solver and for tests. Gap is
// equal (bit-identical: the solve is deterministic) and, after the first
// call per graph, a map lookup.
func GapFresh(b *graph.Balancing) float64 {
	d := float64(b.Degree())
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	if nu2, ok := b.Graph().Nu2(); ok {
		return 1 - (self+d*nu2)/dplus
	}
	return 1 - solveLambda2(b, nil)
}

// solveLambda2 is the production Lanczos solve: basis lanczosBasis,
// tolerance lanczosTol.
func solveLambda2(b *graph.Balancing, alive []bool) float64 {
	lambda, _ := lanczosLambda2(b, alive, lanczosBasis, lanczosTol)
	return lambda
}

// lambda2Key identifies one memoized solver result. The weak graph
// pointer keeps the cache from pinning graphs: weak.Make returns equal
// pointers for the same object, so lookups for live graphs always hit, and
// the per-graph cleanup removes the entry once the graph is collected.
//
// Keying on the graph pointer is sound because graph.Graph is immutable
// after construction — the engine's fault overlay (core.ApplyTopologyDelta)
// never touches the CSR arrays, it layers an aliveness mask over them.
// Results for faulted topologies therefore must NOT come through this key:
// FaultedGap extends it with a hash of the alive mask, so one graph shared
// by many fault schedules (or many epochs of one schedule) yields distinct,
// correctly memoized entries, and flapping schedules that revisit a mask hit
// the cache instead of re-solving.
type lambda2Key struct {
	g         weak.Pointer[graph.Graph]
	selfLoops int
	// maskHash is 0 for the pristine graph and a 64-bit hash of the packed
	// per-arc alive mask otherwise (offset so an all-alive mask still hashes
	// nonzero and cannot collide with the pristine entry).
	maskHash uint64
}

// lambda2Entry is a once-guarded cache slot: concurrent sweep workers asking
// for the same graph's λ₂ share one solve instead of racing to compute
// duplicates.
type lambda2Entry struct {
	once sync.Once
	val  float64
}

var (
	lambda2Mu    sync.Mutex
	lambda2Cache = map[lambda2Key]*lambda2Entry{}
)

// memoLambda2 resolves key through the once-guarded cache, computing via
// compute on first use and evicting when g is collected.
func memoLambda2(g *graph.Graph, key lambda2Key, compute func() float64) float64 {
	lambda2Mu.Lock()
	e, ok := lambda2Cache[key]
	if !ok {
		e = &lambda2Entry{}
		lambda2Cache[key] = e
		runtime.AddCleanup(g, func(k lambda2Key) {
			lambda2Mu.Lock()
			delete(lambda2Cache, k)
			lambda2Mu.Unlock()
		}, key)
	}
	lambda2Mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// FaultedGap returns the eigenvalue gap µ of the balancing graph under a
// fault overlay: alive is the engine's per-arc alive mask (Engine.ArcAlive),
// nil meaning pristine. A dead arc behaves as an extra self-loop — exactly
// the engine's bounce-back semantics — so the faulted transition matrix is
//
//	P'(u,v) = (#live arcs u→v)/d⁺,  P'(u,u) = (d° + #dead arcs at u)/d⁺,
//
// which is again symmetric and doubly stochastic (link and node failures
// kill arcs in mirrored pairs). The gap comes from the same Lanczos solve as
// Gap, applied to P', and is memoized per (graph, d°, mask hash): a flapping
// schedule revisiting a mask pays the solve once. For a partitioned or
// node-failed graph the operator has a second eigenvalue at 1 and the
// returned gap is ≈ 0 (below 10⁻¹⁰) — the global process no longer
// converges, and per-component metrics (Engine.EffectiveDiscrepancy) carry
// the signal instead.
func FaultedGap(b *graph.Balancing, alive []bool) float64 {
	if alive == nil {
		return Gap(b)
	}
	g := b.Graph()
	key := lambda2Key{g: weak.Make(g), selfLoops: b.SelfLoops(), maskHash: maskHash(alive)}
	return 1 - memoLambda2(g, key, func() float64 { return solveLambda2(b, alive) })
}

// maskHash hashes the packed alive bits with an FNV-1a/SplitMix combination.
// The +1 offset keeps an all-alive mask distinct from the pristine (hash 0)
// cache key.
func maskHash(alive []bool) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	var word uint64
	bit := 0
	for _, a := range alive {
		if a {
			word |= 1 << uint(bit)
		}
		if bit++; bit == 64 {
			h = splitmixRound(h ^ word)
			word, bit = 0, 0
		}
	}
	if bit > 0 {
		h = splitmixRound(h ^ word)
	}
	h = splitmixRound(h ^ uint64(len(alive)))
	if h == 0 {
		h = 1
	}
	return h
}

// splitmixRound is the SplitMix64 finalizer used as the hash's mixing round.
func splitmixRound(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lanczosBasis is m, the most Lanczos vectors a solve holds at once: the
// solver restarts from its current Ritz vector when the basis fills, so its
// memory is linear in n whatever the graph (SolveWords).
const lanczosBasis = 128

// SolveWords returns how many float64s one λ₂ solve on an n-node graph
// allocates: m = min(lanczosBasis, n−1) basis vectors and one work vector of
// n entries each, plus five m-entry tridiagonal arrays — about 1 KiB per
// node (64.5 MiB at n = 65536). Admission control caps it like the graph's
// own arcs, without building the graph.
func SolveWords(n int) int64 {
	m := int64(max(0, min(lanczosBasis, n-1)))
	return (m+1)*int64(n) + 5*m
}

// lanczosTol is the residual ‖Py − θy‖ at which the largest Ritz pair
// (θ, y) is accepted. P is symmetric, so an eigenvalue of P lies within the
// residual of θ; being a Rayleigh quotient, θ is in fact accurate to about
// the squared residual over the distance to the next eigenvalue.
const lanczosTol = 1e-10

// lanczosMaxCycles bounds a solve that cannot meet lanczosTol — a graph
// with a gap far below this library's range, or a residual held above the
// tolerance by rounding — at lanczosMaxCycles·m operator applications; the
// solver then returns its best Ritz value.
const lanczosMaxCycles = 200

// lanczosStats counts one solve's work.
type lanczosStats struct {
	matvecs  int // applications of P
	restarts int // basis refills from the current Ritz vector
	basis    int // largest number of basis vectors held at once
}

// lanczosLambda2 returns λ₂ — the largest eigenvalue of P restricted to the
// complement of the all-ones vector — by the Lanczos method with full
// reorthogonalization, and the work it took.
//
// Each step applies P to the newest basis vector and orthogonalizes the
// result by classical Gram–Schmidt, twice (CGS2), against every basis vector
// and the all-ones vector, which keeps the basis orthonormal to working
// precision instead of letting it lose orthogonality as plain Lanczos does.
// The largest eigenvalue θ of the tridiagonal projection is found by Sturm
// bisection to the last bit; the solve stops once the residual of its Ritz
// pair is at most tol. A full basis of m vectors is replaced by the Ritz
// vector, which starts the next cycle.
//
// The start vector is drawn from a fixed seed and every sum runs serially in
// a fixed order, so the result is a pure function of (graph, d°, alive
// mask): bit-identical at any worker count and on every run. A non-nil
// alive mask applies the fault overlay (see FaultedGap).
func lanczosLambda2(b *graph.Balancing, alive []bool, m int, tol float64) (float64, lanczosStats) {
	var st lanczosStats
	n := b.N()
	m = min(m, n-1) // 1^⊥ has dimension n−1; graphs have n ≥ 2

	basis := make([]float64, m*n)
	w := make([]float64, n)
	alpha := make([]float64, m)
	beta := make([]float64, m)
	coef := make([]float64, m)
	ritz := make([]float64, m)
	piv := make([]float64, m)
	row := func(i int) []float64 { return basis[i*n : (i+1)*n] }

	rng := rand.New(rand.NewSource(1))
	for i := range n {
		basis[i] = rng.NormFloat64()
	}
	for cycle := 0; ; cycle++ {
		start := row(0)
		orthogonalize(start, basis[:0], coef) // against the all-ones vector only
		scale(start, 1/math.Sqrt(dot(start, start)))
		for j := 0; j < m; j++ {
			applyP(b, alive, w, row(j))
			st.matvecs++
			alpha[j] = orthogonalize(w, basis[:(j+1)*n], coef)
			beta[j] = math.Sqrt(dot(w, w))
			st.basis = max(st.basis, j+1)

			s := ritz[:j+1]
			theta := ritzPair(s, alpha[:j+1], beta[:j], piv[:j+1])
			if beta[j]*math.Abs(s[j]) <= tol || cycle+1 == lanczosMaxCycles && j+1 == m {
				return theta, st
			}
			if j+1 < m {
				next := row(j + 1)
				for i, v := range w {
					next[i] = v / beta[j]
				}
			}
		}
		// Restart: the Ritz vector y = V·s becomes the next cycle's start
		// (as −y; an eigenvector's sign is immaterial).
		clear(w)
		subtractRows(w, basis, ritz)
		copy(row(0), w)
		st.restarts++
	}
}

// applyP computes dst = P·x over the flat CSR adjacency. A non-nil alive
// mask applies the fault overlay: a dead arc contributes x[u] (a self-loop)
// instead of x[heads[p]], matching the engine's bounce-back.
func applyP(b *graph.Balancing, alive []bool, dst, x []float64) {
	g := b.Graph()
	n := g.N()
	d := g.Degree()
	heads := g.Heads()
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	for u, p := 0, 0; u < n; u++ {
		sum := self * x[u]
		if alive == nil {
			for end := p + d; p < end; p++ {
				sum += x[heads[p]]
			}
		} else {
			for end := p + d; p < end; p++ {
				if alive[p] {
					sum += x[heads[p]]
				} else {
					sum += x[u]
				}
			}
		}
		dst[u] = sum / dplus
	}
}

// orthogonalize removes from w its components along the orthonormal rows of
// basis (each len(w) long) and along the all-ones vector, by two passes of
// classical Gram–Schmidt, and returns the total coefficient on the last row
// (the Lanczos α when w = P·v_last). coef is scratch of at least one entry
// per row.
func orthogonalize(w, basis, coef []float64) float64 {
	n := len(w)
	k := len(basis) / n
	last := 0.0
	for range 2 {
		rowDots(coef[:k], basis, w)
		mean := 0.0
		for _, v := range w {
			mean += v
		}
		mean /= float64(n)
		subtractRows(w, basis, coef[:k])
		for i := range w {
			w[i] -= mean
		}
		if k > 0 {
			last += coef[k-1]
		}
	}
	return last
}

// rowDots sets c[i] to the dot product of w with row i of basis (rows
// len(w) long), four rows per sweep over w. Reorthogonalization is most of
// a solve's work, and sweeping w once per four rows instead of once per row
// makes the solves on random:{1024,4096},8,1 1.3–1.6× faster.
func rowDots(c, basis, w []float64) {
	n := len(w)
	i := 0
	for ; i+4 <= len(c); i += 4 {
		r0 := basis[i*n:][:n]
		r1 := basis[(i+1)*n:][:n]
		r2 := basis[(i+2)*n:][:n]
		r3 := basis[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for p, v := range w {
			s0 += r0[p] * v
			s1 += r1[p] * v
			s2 += r2[p] * v
			s3 += r3[p] * v
		}
		c[i], c[i+1], c[i+2], c[i+3] = s0, s1, s2, s3
	}
	for ; i < len(c); i++ {
		c[i] = dot(basis[i*n:(i+1)*n], w)
	}
}

// subtractRows computes w −= Σ c[i]·(row i of basis), four rows per sweep.
func subtractRows(w, basis, c []float64) {
	n := len(w)
	i := 0
	for ; i+4 <= len(c); i += 4 {
		r0 := basis[i*n:][:n]
		r1 := basis[(i+1)*n:][:n]
		r2 := basis[(i+2)*n:][:n]
		r3 := basis[(i+3)*n:][:n]
		c0, c1, c2, c3 := c[i], c[i+1], c[i+2], c[i+3]
		for p := range w {
			w[p] -= c0*r0[p] + c1*r1[p] + c2*r2[p] + c3*r3[p]
		}
	}
	for ; i < len(c); i++ {
		axpy(-c[i], basis[i*n:(i+1)*n], w)
	}
}

// ritzPair returns the largest eigenvalue θ of the symmetric tridiagonal
// matrix T with diagonal a and off-diagonal b (len(b) = len(a)−1), found by
// Sturm bisection to the last bit, and writes its unit eigenvector into s.
// T is a projection of P, so its spectrum lies in [−1, 1]. piv is scratch
// of len(a).
func ritzPair(s, a, b, piv []float64) float64 {
	k := len(a)
	// Every diagonal entry is a Rayleigh quotient of T, so the largest
	// bounds the eigenvalue from below; Gershgorin's discs bound it from
	// above.
	lo, hi := a[0], math.Inf(-1)
	for i, ai := range a {
		lo = max(lo, ai)
		r := 0.0
		if i > 0 {
			r += math.Abs(b[i-1])
		}
		if i < k-1 {
			r += math.Abs(b[i])
		}
		hi = max(hi, ai+r)
	}
	hi += 1e-12 * (1 + math.Abs(hi)) // strictly above the eigenvalue
	// Invariant: the eigenvalue lies in [lo, hi).
	for {
		mid := lo + (hi-lo)/2
		if !(lo < mid && mid < hi) {
			break
		}
		if factor(a, b, mid, piv) == k {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Inverse iteration at a shift σ just above θ — at least 2⁻⁵⁰ above,
	// relative to the spectrum's scale of 1, so the solves cannot overflow.
	// Every pivot of T − σ·I is negative, so its LDLᵀ factorization is a
	// stable solver whose solutions are dominated by θ's eigenvector.
	factor(a, b, max(hi, lo+0x1p-50), piv)
	for i := range s {
		s[i] = 1
	}
	for range 2 {
		for i := 1; i < k; i++ {
			s[i] -= b[i-1] / piv[i-1] * s[i-1]
		}
		for i := range s {
			s[i] /= piv[i]
		}
		for i := k - 2; i >= 0; i-- {
			s[i] -= b[i] / piv[i] * s[i+1]
		}
		big := 0.0
		for _, v := range s {
			big = max(big, math.Abs(v))
		}
		scale(s, 1/big)
		scale(s, 1/math.Sqrt(dot(s, s)))
	}
	return lo
}

// factor computes the pivots of the LDLᵀ factorization of T − x·I into piv
// and returns how many are negative: by Sylvester's law of inertia, the
// number of eigenvalues of T below x. A zero pivot counts as negative, at
// the size of pivotFloor, so the recurrence never divides by zero.
func factor(a, b []float64, x float64, piv []float64) int {
	count := 0
	for i, ai := range a {
		d := ai - x
		if i > 0 {
			d -= b[i-1] * b[i-1] / piv[i-1]
		}
		if d == 0 {
			d = -pivotFloor
		}
		if d < 0 {
			count++
		}
		piv[i] = d
	}
	return count
}

// pivotFloor stands in for a zero pivot; it is far below any pivot that
// decides a count.
const pivotFloor = 0x1p-1000

// dot returns a·b.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// axpy computes y += c·x.
func axpy(c float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += c * v
	}
}

func scale(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// BalancingTime returns the paper's T = ⌈16·ln(nK)/µ⌉ (the time after which
// Theorem 2.3's discrepancy bounds hold), with K the initial discrepancy.
// K < 1 is treated as 1 so that an already-balanced input yields a small
// positive horizon.
func BalancingTime(n int, initialDiscrepancy int, mu float64) int {
	if mu <= 0 {
		panic(fmt.Sprintf("spectral: non-positive eigenvalue gap %v", mu))
	}
	k := initialDiscrepancy
	if k < 1 {
		k = 1
	}
	t := 16 * math.Log(float64(n)*float64(k)) / mu
	return int(math.Ceil(t))
}

// MixingTime returns t_µ = 6·ln(n)/µ, the quantity the proofs of Section 2
// phase their interval arguments in.
func MixingTime(n int, mu float64) int {
	if mu <= 0 {
		panic(fmt.Sprintf("spectral: non-positive eigenvalue gap %v", mu))
	}
	return int(math.Ceil(6 * math.Log(float64(n)) / mu))
}
