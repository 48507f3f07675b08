package main

// The workload generator. A plan is a pure function of (workload, seed,
// seconds): every family, request body, expected fingerprint and arrival
// time is drawn here, before any timed phase starts, so the server only
// ever sees the generated requests and two runs with one seed send the same
// bytes in the same order.

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"strings"
	"time"

	"detlb/internal/archive"
	"detlb/internal/scenario"
)

// Workload names.
const (
	wlColdExpander = "cold-expander"
	wlColdRounds   = "cold-rounds"
	wlHitMix       = "hit-mix"
)

var workloads = []string{wlColdExpander, wlColdRounds, wlHitMix}

// Operation kinds. A cold op is a never-seen family POSTed and awaited to
// its terminal result; a hit re-POSTs an archived family; query and diff
// are archive reads.
const (
	opCold  = "cold"
	opHit   = "hit"
	opQuery = "query"
	opDiff  = "diff"
)

// hotFamilies is the size of the warmed hot set every workload archives
// during set-up.
const hotFamilies = 48

// maxOrdinal bounds the per-seed family ordinal, so (namespace, seed,
// ordinal) packs injectively into one graph seed or load total.
const maxOrdinal = 1 << 12

// Key namespaces keep the families of different roles disjoint: no cold
// family of any seed can share a graph seed or a load total with the hot
// set, or with a cold family of another seed.
const (
	nsHot = iota + 1
	nsExpander
	nsRounds
	nsWrite
)

// family is one generated scenario family with its precomputed identity.
type family struct {
	Name   string
	Body   []byte // the POST body: the family's canonical encoding
	Digest string // expected fingerprint
	Cells  int
}

// op is one generated operation.
type op struct {
	ID   int
	Kind string
	// Due is the send time relative to the phase start (open loop only).
	Due time.Duration
	// Fam is the POSTed family (cold and hit ops).
	Fam *family
	// Query is the read's text form (query ops); DiffA/DiffB the digests a
	// diff aligns.
	Query        archive.QuerySpec
	DiffA, DiffB string
}

// path renders a read op's request path.
func (o *op) path() string {
	if o.Kind == opDiff {
		return "/v1/archive/diff?a=" + o.DiffA + "&b=" + o.DiffB
	}
	v := url.Values{}
	v["where"] = o.Query.Where
	v["select"] = o.Query.Select
	v["group"] = o.Query.Group
	v["agg"] = o.Query.Aggs
	for k, vals := range v {
		if len(vals) == 0 {
			delete(v, k)
		}
	}
	return "/v1/archive/query?" + v.Encode()
}

// phase is one traffic phase: a closed loop (one client, each op sent when
// the previous one has completed) or an open loop (ops sent at their due
// times regardless of completions).
type phase struct {
	Closed bool
	Ops    []op
}

// plan is everything one benchmark run sends.
type plan struct {
	Workload string
	Seed     uint32
	Hot      []*family
	Phases   []phase
}

// Shape of each workload. The cold loops are sized in runs per second of
// --seconds, so every run of one seed does the same work. On the reference
// machine (README.md) at --seconds 30 the expander loop lasts about 38 s
// — its 135 runs average out the spread in solve cost between random
// graphs — and the rounds loop, whose runs cost nearly the same, 18 s.
const (
	expanderRunsPerSecond = 4.5
	roundsRunsPerSecond   = 4.0
	// The cold workloads interleave their cold loop with one-second
	// read-back bursts: re-POSTs and archive reads on an idle server, so
	// hit and query latencies exist on every workload.
	readBackBursts = 5
	readBackRate   = 200.0
	readBackOps    = 200
	// hitMixRate is hit-mix's open-loop arrival rate.
	hitMixRate = 200.0
)

// Traffic mixes, as blocks dealt in shuffled order: every block holds each
// kind in its exact share, so each seed sends the same number of each kind
// at the same mean spacing. Reads are dealt from their own block: grouped
// aggregates, filtered projections and diffs in 2:2:1.
var (
	hitMixBlock   = blockOf(share{opHit, 17}, share{readOp, 2}, share{opCold, 1})
	readBackBlock = blockOf(share{opHit, 1}, share{readOp, 1})
	readBlock     = blockOf(share{readAgg, 2}, share{readProject, 2}, share{opDiff, 1})
)

// Read kinds as dealt; readAgg and readProject become opQuery ops.
const (
	readOp      = "read"
	readAgg     = "agg"
	readProject = "project"
)

// share is one kind's count in a block.
type share struct {
	kind string
	n    int
}

func blockOf(shares ...share) []string {
	var out []string
	for _, s := range shares {
		for range s.n {
			out = append(out, s.kind)
		}
	}
	return out
}

// dealer deals kinds from shuffled copies of a block.
type dealer struct {
	rng   *rand.Rand
	block []string
	hand  []string
}

func (d *dealer) next() string {
	if len(d.hand) == 0 {
		d.hand = append(d.hand[:0], d.block...)
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	k := d.hand[0]
	d.hand = d.hand[1:]
	return k
}

// newPlan builds the plan for (workload, seed, seconds).
func newPlan(workload string, seed uint32, seconds int) (*plan, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	p := &plan{Workload: workload, Seed: seed}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6465746c62))
	reads := &dealer{rng: rng, block: readBlock}
	for i := range hotFamilies {
		f, err := hotFamily(seed, i)
		if err != nil {
			return nil, err
		}
		p.Hot = append(p.Hot, f)
	}
	id := 0
	switch workload {
	case wlColdExpander, wlColdRounds:
		rate, build := expanderRunsPerSecond, expanderFamily
		if workload == wlColdRounds {
			rate, build = roundsRunsPerSecond, roundsFamily
		}
		n := max(readBackBursts, int(rate*float64(seconds)+0.5))
		if n > maxOrdinal {
			return nil, fmt.Errorf("%d cold runs exceed the generator's %d-per-seed limit", n, maxOrdinal)
		}
		targets := append([]*family(nil), p.Hot...)
		kinds := &dealer{rng: rng, block: readBackBlock}
		for b := range readBackBursts {
			cold := phase{Closed: true}
			for i := b * n / readBackBursts; i < (b+1)*n/readBackBursts; i++ {
				f, err := build(seed, i)
				if err != nil {
					return nil, err
				}
				cold.Ops = append(cold.Ops, op{ID: id, Kind: opCold, Fam: f})
				targets = append(targets, f)
				id++
			}
			// The burst re-POSTs families of the hot set and of the cold
			// loop so far, all archived by then, and reads the archive.
			var burst phase
			for i := range readBackOps {
				o := op{ID: id, Due: due(i, readBackRate)}
				if kinds.next() == opHit {
					o.Kind, o.Fam = opHit, targets[rng.IntN(len(targets))]
				} else {
					fillRead(&o, reads.next(), rng, p.Hot, seed)
				}
				burst.Ops = append(burst.Ops, o)
				id++
			}
			p.Phases = append(p.Phases, cold, burst)
		}
	case wlHitMix:
		var mix phase
		kinds := &dealer{rng: rng, block: hitMixBlock}
		writes := 0
		for i := range int(hitMixRate * float64(seconds)) {
			o := op{ID: i, Due: due(i, hitMixRate)}
			switch kinds.next() {
			case opHit:
				o.Kind, o.Fam = opHit, p.Hot[rng.IntN(len(p.Hot))]
			case readOp:
				fillRead(&o, reads.next(), rng, p.Hot, seed)
			default:
				if writes >= maxOrdinal {
					return nil, fmt.Errorf("hit-mix writes exceed the generator's %d-per-seed limit", maxOrdinal)
				}
				f, err := writeFamily(seed, writes)
				if err != nil {
					return nil, err
				}
				writes++
				o.Kind, o.Fam = opCold, f
			}
			mix.Ops = append(mix.Ops, o)
		}
		p.Phases = []phase{mix}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloads, ", "))
	}
	return p, nil
}

// due is arrival i's send offset at a fixed rate.
func due(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// fillRead makes o an archive read of the given kind over the hot set.
// Every read filters on the hot set's name prefix, so its answer does not
// change while other traffic writes new entries — which lets the benchmark
// check it against an offline index afterwards — while the index still
// scans every row.
func fillRead(o *op, kind string, rng *rand.Rand, hot []*family, seed uint32) {
	prefix := fmt.Sprintf("name~hot-%d-", seed)
	switch kind {
	case readAgg:
		o.Kind = opQuery
		groups := [][]string{{"graph_kind", "algo"}, {"algo"}, {"graph"}}
		o.Query = archive.QuerySpec{
			Where: []string{prefix},
			Group: groups[rng.IntN(len(groups))],
			Aggs:  []string{"count", "mean(rounds)", "max(final_discrepancy)", "min(min_discrepancy)"},
		}
	case readProject:
		o.Kind = opQuery
		algos := []string{"rotor-router", "send-floor"}
		o.Query = archive.QuerySpec{
			Where:  []string{prefix, "algo=" + algos[rng.IntN(len(algos))], fmt.Sprintf("rounds>=%d", rng.IntN(40))},
			Select: []string{"digest", "cell", "graph", "workload", "rounds", "final_discrepancy", "min_discrepancy"},
		}
	default:
		o.Kind = opDiff
		a := rng.IntN(len(hot))
		b := (a + 1 + rng.IntN(len(hot)-1)) % len(hot)
		o.DiffA, o.DiffB = hot[a].Digest, hot[b].Digest
	}
}

// key packs (namespace, seed, ordinal) into a unique positive integer used
// as a graph seed or a point-load total.
func key(ns int, seed uint32, i int) int64 {
	return int64(ns)<<44 | int64(seed)<<12 | int64(i)
}

// hotFamily is hot-set family i: a two-cell family, cycling over three
// graph kinds so grouped reads have groups to form. Its 1500 rounds make
// the warm mostly compute: file creation here is slow and erratic enough
// that a warm made mostly of archive writes would make setup_s noise.
func hotFamily(seed uint32, i int) (*family, error) {
	k := key(nsHot, seed, i)
	graphs := []string{fmt.Sprintf("random:64,6,%d", k), "torus:8,2", "hypercube:6"}
	return smallFamily(fmt.Sprintf("hot-%d-%04d", seed, i), graphs[i%len(graphs)], k,
		scenario.RunParams{Rounds: 1500})
}

// writeFamily is hit-mix's cold write i: small, and on one graph with an
// analytic ν₂, so each costs the same few milliseconds and none touches
// the spectral layer.
func writeFamily(seed uint32, i int) (*family, error) {
	return smallFamily(fmt.Sprintf("write-%d-%04d", seed, i), "hypercube:6", key(nsWrite, seed, i),
		scenario.RunParams{Rounds: 200, Patience: 64})
}

// smallFamily is a two-cell family on a 64-node graph with a unique load
// total.
func smallFamily(name, graph string, total int64, run scenario.RunParams) (*family, error) {
	return newFamily(name, graph, "rotor-router;send-floor", fmt.Sprintf("point:%d", total), run)
}

// expanderFamily is cold-expander family i: the paper's headline
// experiment on three fresh random 8-regular graphs, run to the paper's
// horizon with patience 2048.
func expanderFamily(seed uint32, i int) (*family, error) {
	k := key(nsExpander, seed, i)
	return newFamily(fmt.Sprintf("expander-%d-%04d", seed, i),
		fmt.Sprintf("random:256,8,%d;random:512,8,%d;random:1024,8,%d", k, k, k),
		"send-floor;rotor-router", "point", scenario.RunParams{Patience: 2048})
}

// roundsFamily is cold-rounds family i: graphs with an analytic ν₂, so the
// spectral layer costs nothing and 600 explicit rounds of the round loop
// do the work. The unique load total makes each family never-seen.
func roundsFamily(seed uint32, i int) (*family, error) {
	return newFamily(fmt.Sprintf("rounds-%d-%04d", seed, i),
		"hypercube:11;torus:48,2", "send-floor;rotor-router;good:4",
		fmt.Sprintf("point:%d", key(nsRounds, seed, i)), scenario.RunParams{Rounds: 600})
}

func newFamily(name, graphs, algos, loads string, run scenario.RunParams) (*family, error) {
	fam, err := scenario.ParseFamily(graphs, algos, loads, "", "")
	if err != nil {
		return nil, fmt.Errorf("family %s: %w", name, err)
	}
	fam.Name = name
	fam.Run = run
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("family %s: %w", name, err)
	}
	return &family{Name: name, Body: canonical, Digest: digest, Cells: len(fam.Scenarios())}, nil
}
