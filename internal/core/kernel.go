package core

import (
	"runtime"
	"sync"
)

// Kernel is the model-agnostic execution substrate every simulation model in
// this module runs on: a persistent worker-goroutine pool plus the
// deterministic chunking contract that makes parallel rounds bit-identical to
// serial ones. The diffusion Engine and the population-protocol machines
// (internal/protocol) both dispatch their rounds through a Kernel; anything
// scheduled through it inherits the determinism guarantees the engine's tests
// pin.
//
// A round is one fused dispatch: every worker runs the first phase on its
// node range, meets the others at a barrier, then runs the second phase on
// the same range. Chunk boundaries are a pure function of (n, width) — see
// ChunkBounds — so the partition never depends on scheduling.
//
// The pool is spawned once at construction and reused for every round: a
// round dispatch is one channel send per worker plus one WaitGroup wait.
// Workers idle on their task channel between rounds and exit when the
// channel is closed (see Close).
type Kernel struct {
	width int
	tasks []chan roundTask
	wg    sync.WaitGroup
	bar   barrier
	once  sync.Once
}

// phaseFunc processes the half-open node range [lo, hi) of one round phase.
type phaseFunc func(lo, hi int)

// roundTask is one worker's share of a round: run first on [lo, hi), then —
// when second is non-nil — meet the other workers at the round barrier and
// run second on the same range. Fusing both phases into a single dispatch
// halves the per-round wakeups versus dispatching each phase separately.
type roundTask struct {
	lo, hi        int
	first, second phaseFunc
}

// NewKernel builds a kernel with the given worker count. Values below 2
// select the serial path (phases run as direct calls on the caller's
// goroutine, which is both the determinism baseline and the fast path for
// small n); values above GOMAXPROCS are clamped to it — extra workers cannot
// run simultaneously and only add handoff overhead.
//
// Kernels with Width > 1 own goroutines; release them with Close. A kernel
// that is simply dropped leaks its pool until process exit, so owners that
// cannot guarantee a Close call should register a GC cleanup the way the
// Engine does.
func NewKernel(workers int) *Kernel {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	k := &Kernel{width: max(workers, 0)}
	if k.width > 1 {
		k.tasks = make([]chan roundTask, k.width)
		for w := range k.tasks {
			ch := make(chan roundTask, 1)
			k.tasks[w] = ch
			go k.worker(ch)
		}
	}
	return k
}

func (k *Kernel) worker(ch <-chan roundTask) {
	for t := range ch {
		t.first(t.lo, t.hi)
		if t.second != nil {
			k.bar.await()
			t.second(t.lo, t.hi)
		}
		k.wg.Done()
	}
}

// Width returns the effective worker count after clamping; 0 and 1 both mean
// the serial path.
func (k *Kernel) Width() int { return k.width }

// RunRound executes one fused two-phase round: first over all of [0, n),
// then — after every worker has finished its share of first — second over
// the same ranges. second may be nil. The inter-phase barrier guarantees
// second never observes a partially written first phase; with Width <= 1
// both phases run serially on the caller's goroutine.
func (k *Kernel) RunRound(n int, first, second func(lo, hi int)) {
	chunks := min(k.width, n)
	if chunks <= 1 {
		first(0, n)
		if second != nil {
			second(0, n)
		}
		return
	}
	// No round is in flight here (wg.Wait below is the only exit), so the
	// barrier width can be set without locking: the write is ordered before
	// the task sends and after the previous round's Done calls.
	k.bar.parties = chunks
	k.wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := ChunkBounds(n, chunks, c)
		k.tasks[c] <- roundTask{lo: lo, hi: hi, first: first, second: second}
	}
	k.wg.Wait()
}

// Close shuts the worker pool down; idempotent. Workers drain their channels
// and exit. The kernel must not be used afterwards.
func (k *Kernel) Close() {
	k.once.Do(func() {
		for _, ch := range k.tasks {
			close(ch)
		}
	})
}

// ChunkBounds returns the half-open boundary of chunk c when [0, n) is split
// into the given number of chunks — the kernel's deterministic partition
// contract. The first n mod chunks chunks have size ⌈n/chunks⌉ and the rest
// ⌊n/chunks⌋, so no chunk is empty and the same (n, chunks) always yields
// the same partition. Engine results do not depend on the partition (phases
// write disjoint ranges of shared flat arrays), but stable boundaries mean
// any balancer or auditor bug that did depend on it reproduces exactly, and
// TestChunkBounds pins the contract.
func ChunkBounds(n, chunks, c int) (lo, hi int) {
	q, r := n/chunks, n%chunks
	lo = c*q + min(c, r)
	hi = lo + q
	if c < r {
		hi++
	}
	return lo, hi
}

// barrier is a reusable generation-counted rendezvous for the workers of one
// round. parties is set by RunRound before dispatch.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

func (b *barrier) await() {
	b.mu.Lock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
