package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// The text front-end: the CLI mini-language ("name:arg1,arg2") parsed into
// normalized descriptors. Defaults are materialized here — an empty argument
// slot ("torus:,3") takes its positional default, exactly as the historical
// flag grammar did — but a non-empty argument that fails to parse as an
// integer is an error, never a silent default: "cycle:abc" must not quietly
// become a 64-cycle.

// parseArgs resolves the comma-separated tokens of a spec against the kind's
// argument grammar: empty slots take their positional defaults, non-empty
// slots must parse as integers.
func parseArgs(what string, tokens []string, defs []argDef) ([]int64, error) {
	if len(tokens) > len(defs) {
		return nil, fmt.Errorf("%s takes at most %d arguments, got %d", what, len(defs), len(tokens))
	}
	out := make([]int64, 0, len(defs))
	for i, def := range defs {
		var tok string
		if i < len(tokens) {
			tok = strings.TrimSpace(tokens[i])
		}
		if tok == "" {
			switch def.mode {
			case argRequired:
				return nil, fmt.Errorf("%s needs argument %q", what, def.name)
			case argDefault:
				out = append(out, def.def)
			case argDynamic:
				// Dynamic defaults resolve at bind time; dynamic args are
				// last, so the remaining slots are dynamic too.
				return out, nil
			}
			continue
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad argument %q for %s", what, tok, def.name)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitSpec cuts "name:a,b,c" into the kind and its argument tokens. A bare
// trailing colon ("send-floor:") is an empty argument list, not one empty
// argument — zero-arity kinds accepted it historically and still must.
func splitSpec(spec string) (kind string, tokens []string) {
	kind, rest, found := strings.Cut(strings.TrimSpace(spec), ":")
	if !found || rest == "" {
		return kind, nil
	}
	return kind, strings.Split(rest, ",")
}

// ParseGraph parses a graph spec of the text grammar:
//
//	cycle:N | torus:SIDE[,R] | hypercube:R | complete:N |
//	random:N,D[,SEED] | petersen | gp:N,K | kbipartite:K |
//	circulant:N,S1+S2+…
//
// into a normalized descriptor (defaults and seeds materialized).
func ParseGraph(spec string) (GraphSpec, error) {
	kind, tokens := splitSpec(spec)
	e, ok := graphRegistry[kind]
	if !ok {
		return GraphSpec{}, fmt.Errorf("unknown graph %q", kind)
	}
	s := GraphSpec{Kind: kind}
	if e.offsets && len(tokens) > 1 {
		if len(tokens) > 2 {
			return GraphSpec{}, fmt.Errorf("graph %s takes at most 2 arguments, got %d", kind, len(tokens))
		}
		// The circulant offset list "S1+S2+…" occupies the second slot.
		for _, part := range strings.Split(tokens[1], "+") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return GraphSpec{}, fmt.Errorf("bad circulant offset %q", part)
			}
			s.Offsets = append(s.Offsets, v)
		}
		tokens = tokens[:1]
	}
	args, err := parseArgs("graph "+kind, tokens, e.args)
	if err != nil {
		return GraphSpec{}, err
	}
	s.Args = args
	return normalizeGraph(s)
}

// ParseAlgo parses an algorithm spec — a diffusion balancer:
//
//	send-floor | send-round | rotor-router | rotor-router* | good:S |
//	biased | rand-extra[:SEED] | rand-round[:SEED] | mimic |
//	bounded-error | matching[:SEED] | matching-rand[:SEED]
//
// or a population-protocol model:
//
//	majority[:SEED] | herman[:SEED]
//
// ("rotor-star" is accepted as an alias for "rotor-router*".)
func ParseAlgo(spec string) (AlgoSpec, error) {
	kind, tokens := splitSpec(spec)
	if kind == "rotor-star" {
		kind = "rotor-router*"
	}
	var defs []argDef
	if e, ok := protocolRegistry[kind]; ok {
		defs = e.args
	} else if e, ok := algoRegistry[kind]; ok {
		defs = e.args
	} else {
		return AlgoSpec{}, fmt.Errorf("unknown algorithm %q", kind)
	}
	args, err := parseArgs("algorithm "+kind, tokens, defs)
	if err != nil {
		return AlgoSpec{}, err
	}
	return normalizeAlgo(AlgoSpec{Kind: kind, Args: args})
}

// ParseWorkload parses an initial-load spec:
//
//	point:TOTAL | uniform:EACH | bimodal:LO,HI | random:MAX[,SEED] |
//	ramp:BASE,STEP | opinions[:A] | tokens[:COUNT,SEED]
func ParseWorkload(spec string) (WorkloadSpec, error) {
	p, err := workloadKinds.parse(spec)
	return WorkloadSpec(p), err
}

// ParseSchedule parses a dynamic-workload schedule spec:
//
//	none | burst:ROUND,NODE,AMOUNT | drain:FROM,TO,PERNODE |
//	periodic:EVERY,NODE,AMOUNT | churn:EVERY,AMOUNT[,SEED] |
//	refill:ROUND,AMOUNT[,EVERY]
//
// Parts joined with "+" compose into one schedule applied in order; "none"
// (or the empty string) is the empty (static) descriptor. Node-range and
// can-never-fire validation happen at bind time, when n is known.
func ParseSchedule(spec string) (ScheduleSpec, error) { return scheduleKinds.parseList(spec) }

// ParseTopology parses a fault-injection topology spec:
//
//	none | faillink:ROUND,U,V | restorelink:ROUND,U,V |
//	failnode:ROUND,NODE[,REDISTRIBUTE] | restorenode:ROUND,NODE |
//	flap:U,V,FROM,PERIOD[,DUTY] | partition:ROUND,BOUNDARY[,HEAL] |
//	periodic-fault:EVERY,DOWN[,SEED]
//
// Parts joined with "+" overlay into one schedule; "none" (or the empty
// string) is the empty (pristine) descriptor. Node-range and can-never-fire
// validation happen at bind time, when n is known.
func ParseTopology(spec string) (TopologySpec, error) { return topologyKinds.parseList(spec) }

// splitList splits a semicolon-separated spec list, dropping empty entries —
// the list syntax of the lbsweep flags.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseFamily parses the lbsweep cross-product grammar — semicolon-separated
// lists of graph, algorithm, workload, schedule, and topology specs — into a
// normalized Family. The schedule list may be empty (all runs static), and
// the topology list may be empty (all runs pristine).
func ParseFamily(graphs, algos, workloads, schedules, topologies string) (*Family, error) {
	f := &Family{Version: Version}
	for _, gs := range splitList(graphs) {
		g, err := ParseGraph(gs)
		if err != nil {
			return nil, err
		}
		f.Graphs = append(f.Graphs, g)
	}
	for _, as := range splitList(algos) {
		a, err := ParseAlgo(as)
		if err != nil {
			return nil, err
		}
		f.Algos = append(f.Algos, a)
	}
	for _, ws := range splitList(workloads) {
		w, err := ParseWorkload(ws)
		if err != nil {
			return nil, err
		}
		f.Workloads = append(f.Workloads, w)
	}
	for _, ss := range splitList(schedules) {
		s, err := ParseSchedule(ss)
		if err != nil {
			return nil, err
		}
		f.Schedules = append(f.Schedules, s)
	}
	for _, ts := range splitList(topologies) {
		t, err := ParseTopology(ts)
		if err != nil {
			return nil, err
		}
		f.Topologies = append(f.Topologies, t)
	}
	return f, nil
}
