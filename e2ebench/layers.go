package main

// Per-layer figures: the traced replay's spans folded into the per_layer
// metrics of BENCHMARK.json, plus the work counters, which are functions of
// the plan and the result documents alone and so repeat exactly.

import (
	"encoding/json"
	"fmt"
	"sort"

	"detlb/internal/scenario"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counters are the deterministic work counters of the timed phases.
type counters struct {
	Cells, Rounds, ArcVisits, Solves, BytesWritten, IndexRows, Hits int64
}

// countWork derives the counters from the plan and the served result
// documents. Solves counts distinct graph descriptors of a kind with no
// analytic ν₂: the spectral layer must iterate for exactly those.
func countWork(p *plan, results map[string][]byte) (counters, error) {
	var c counters
	analytic := map[string]bool{}
	solved := map[string]bool{}
	for _, f := range p.Hot {
		c.IndexRows += int64(f.Cells)
	}
	for i := range p.Phases {
		for j := range p.Phases[i].Ops {
			o := &p.Phases[i].Ops[j]
			switch o.Kind {
			case opHit:
				c.Hits++
				continue
			case opCold:
			default:
				continue
			}
			doc, ok := results[o.Fam.Digest]
			if !ok {
				return c, fmt.Errorf("%s: no served result", o.Fam.Name)
			}
			var rd struct {
				Cells []struct {
					Graph     string `json:"graph"`
					N         int64  `json:"n"`
					D         int64  `json:"d"`
					SelfLoops int64  `json:"self_loops"`
					Rounds    int64  `json:"rounds"`
				} `json:"cells"`
			}
			if err := json.Unmarshal(doc, &rd); err != nil {
				return c, fmt.Errorf("%s: %w", o.Fam.Name, err)
			}
			c.BytesWritten += int64(len(o.Fam.Body) + len(doc))
			c.IndexRows += int64(len(rd.Cells))
			for _, cell := range rd.Cells {
				c.Cells++
				c.Rounds += cell.Rounds
				c.ArcVisits += cell.Rounds * cell.N * (cell.D + cell.SelfLoops)
				if solved[cell.Graph] {
					continue
				}
				solved[cell.Graph] = true
				isAnalytic, err := analyticKind(cell.Graph, analytic)
				if err != nil {
					return c, err
				}
				if !isAnalytic {
					c.Solves++
				}
			}
		}
	}
	return c, nil
}

// analyticKind reports whether graphs of desc's kind carry an analytic ν₂,
// binding one instance per kind.
func analyticKind(desc string, memo map[string]bool) (bool, error) {
	spec, err := scenario.ParseGraph(desc)
	if err != nil {
		return false, err
	}
	if v, ok := memo[spec.Kind]; ok {
		return v, nil
	}
	g, err := spec.BindGraph()
	if err != nil {
		return false, err
	}
	_, v := g.Nu2()
	memo[spec.Kind] = v
	return v, nil
}

// Layer groups for the traced shares: every span name maps to the layer
// whose code it times.
var layerOf = map[string]string{
	spLoad:                 "scenario",
	spNormalize:            "scenario",
	spFingerprint:          "scenario",
	spBind:                 "scenario",
	spBindCells:            "scenario",
	spGap:                  "spectral",
	spGap + analyticSuffix: "spectral",
	spSweep:                "sweep",
	spBuild:                "archive_store",
	spGet:                  "archive_store",
	spPut:                  "archive_store",
	spIndexAdd:             "archive_index",
	spParseQuery:           "archive_index",
	spQuery:                "archive_index",
	spDiff:                 "archive_index",
	spEncode:               "archive_index",
}

var layerNames = []string{"scenario", "spectral", "sweep", "archive_store", "archive_index"}

// layerMetrics folds the timed phases' spans (arrival ≥ 0) and the served
// pass into the per-layer metrics.
func layerMetrics(t *tracer, sv *served, c counters, tracedNs, untracedNs int64) map[string]metric {
	byName := map[string][]float64{} // span durations, seconds
	var rootNs int64
	layerNs := map[string]int64{}
	frontUs := map[int]float64{} // per hit root: Load+Normalize+Fingerprint
	getUs := map[int]float64{}   // per hit root: GetResult
	queryUs := map[int]float64{} // per query root: parse+evaluate+encode
	diffUs := map[int]float64{}  // per diff root: align+encode
	rootKind := map[int]string{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Arrival < 0 {
			continue
		}
		d := s.dur()
		if s.Parent == noParent {
			rootNs += int64(d)
			rootKind[s.ID] = s.Name
			continue
		}
		byName[s.Name] = append(byName[s.Name], d.Seconds())
		layerNs[layerOf[s.Name]] += int64(d)
		us := d.Seconds() * 1e6
		switch rootKind[s.Parent] {
		case spRootPrefix + opHit:
			if s.Name == spGet {
				getUs[s.Parent] += us
			} else {
				frontUs[s.Parent] += us
			}
		case spRootPrefix + opQuery:
			queryUs[s.Parent] += us
		case spRootPrefix + opDiff:
			diffUs[s.Parent] += us
		}
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sum := func(name string) float64 {
		total := 0.0
		for _, v := range byName[name] {
			total += v
		}
		return total
	}
	// The gap percentile is over solves; a workload with none (cold-rounds)
	// reports its analytic lookups instead.
	gaps := byName[spGap]
	if len(gaps) == 0 {
		gaps = byName[spGap+analyticSuffix]
	}

	set("spectral.solves", float64(c.Solves), "count")
	set("spectral.gap_ms_p50", pct(gaps, 50)*1e3, "ms")
	set("spectral.gap_s", sum(spGap)+sum(spGap+analyticSuffix), "s")
	sweepS := sum(spSweep)
	set("analysis.sweep_s", sweepS, "s")
	set("analysis.cells", float64(c.Cells), "count")
	set("analysis.rounds", float64(c.Rounds), "count")
	set("core.arc_visits", float64(c.ArcVisits), "count")
	set("core.ns_per_arc_visit", sweepS*1e9/float64(max(c.ArcVisits, 1)), "ns")
	set("scenario.bind_ms_p50", pct(byName[spBindCells], 50)*1e3, "ms")
	front, get := pct(values(frontUs), 50), pct(values(getUs), 50)
	set("scenario.fingerprint_us_p50", front, "us")
	set("archive.get_us_p50", get, "us")
	// Serve's self time is taken from the send time: the generator's own
	// lateness (gen.late_ms_*) is not the server's.
	hitUs := pct(sv.hitSent, 50) * 1e3
	set("serve.hit_self_us_p50", hitUs-front-get, "us")
	set("serve.hit_self_pct", 100*(hitUs-front-get)/hitUs, "%")
	set("archive.query_us_p50", pct(values(queryUs), 50), "us")
	set("archive.diff_us_p50", pct(values(diffUs), 50), "us")
	set("archive.index_rows", float64(c.IndexRows), "count")
	set("archive.build_ms_p50", pct(byName[spBuild], 50)*1e3, "ms")
	set("archive.put_ms_p50", pct(byName[spPut], 50)*1e3, "ms")
	set("archive.index_add_ms_p50", pct(byName[spIndexAdd], 50)*1e3, "ms")
	set("archive.bytes_written", float64(c.BytesWritten), "bytes")
	set("serve.queue_s_mean", sv.queueMean, "s")
	set("serve.run_s_mean", sv.runMean, "s")
	set("serve.cache_hits", sv.cacheHits, "count")
	set("gen.late_ms_p50", pct(sv.lateMs, 50), "ms")
	set("gen.late_ms_p99", pct(sv.lateMs, 99), "ms")
	for _, l := range layerNames {
		set("share."+l+"_pct", 100*float64(layerNs[l])/float64(max(rootNs, 1)), "%")
	}
	set("trace.overhead_pct", 100*float64(tracedNs-untracedNs)/float64(max(untracedNs, 1)), "%")
	return m
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// pct is the q-th percentile of xs by linear interpolation between closest
// ranks; 0 for an empty population.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return pct(xs, 50) }
