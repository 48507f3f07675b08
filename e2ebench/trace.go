package main

// The traced run. It replays the plan's arrivals in order, in process,
// through each layer's public entry points in the order the server's hit
// path and executor call them, and records a span around every call. Spans
// live in memory and are written out when the run ends. The spans come
// from these calls into the layers; the program itself carries none.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/graph"
	"detlb/internal/scenario"
	"detlb/internal/spectral"
)

// Span names: one per layer entry point, plus one root span per op.
const (
	spLoad         = "scenario.Load"
	spNormalize    = "scenario.Normalize"
	spFingerprint  = "scenario.Fingerprint"
	spBind         = "scenario.Bind"
	spBindCells    = "scenario.BindScenarios"
	spGap          = "spectral.Gap"
	spSweep        = "analysis.SweepContext"
	spBuild        = "archive.BuildResultDoc"
	spGet          = "archive.GetResult"
	spPut          = "archive.Put"
	spIndexAdd     = "archive.Index.Add"
	spParseQuery   = "archive.ParseQuerySpec"
	spQuery        = "archive.Index.Query"
	spDiff         = "archive.Index.Diff"
	spEncode       = "archive.Encode"
	spRootPrefix   = "op."
	setupArrival   = -1
	noParent       = -1
	analyticSuffix = ".analytic"
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Arrival int    `json:"arrival"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. The replay is sequential, so it needs no
// locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, arrival int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Arrival: arrival, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// write emits the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer drives the layers directly over its own archive directory.
type replayer struct {
	tr    *tracer
	store *archive.Store
	index *archive.Index
	// results holds each cold family's replayed result document.
	results map[string][]byte
	// solves counts distinct non-analytic graphs whose gap the timed phases
	// solved; bytes counts archive bytes they wrote.
	solves, bytes int
	timed         bool
}

func newReplayer(dir string) (*replayer, error) {
	store, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: newTracer(), store: store, index: archive.NewIndex(store), results: map[string][]byte{}}, nil
}

// step runs one layer call, traced or not.
type step func(name string, fn func() error) error

// untimed runs a layer call with no span.
func untimed(_ string, fn func() error) error { return fn() }

// spanned returns the step that records each call as a child of root.
func (r *replayer) spanned(root, arrival int) step {
	return func(name string, fn func() error) error {
		id := r.tr.begin(name, root, arrival)
		err := fn()
		r.tr.end(id)
		return err
	}
}

// front is the request front half every POST pays: parse, normalize (the
// admission check), fingerprint, archive lookup. stored is nil on a miss.
func front(f *family, store *archive.Store, call step) (fam *scenario.Family, canonical, stored []byte, err error) {
	var digest string
	err = call(spLoad, func() (err error) {
		fam, err = scenario.Load(bytes.NewReader(f.Body))
		return err
	})
	if err == nil {
		err = call(spNormalize, fam.Normalize)
	}
	if err == nil {
		err = call(spFingerprint, func() (err error) {
			digest, canonical, err = fam.Fingerprint()
			return err
		})
	}
	if err == nil && digest != f.Digest {
		err = fmt.Errorf("%s: fingerprint %s, want %s", f.Name, digest, f.Digest)
	}
	if err == nil {
		err = call(spGet, func() (err error) {
			stored, err = store.GetResult(digest)
			return err
		})
		if errors.Is(err, archive.ErrNotFound) {
			err = nil
		}
	}
	return fam, canonical, stored, err
}

// cold replays a miss: the handler's front half and validating bind, then
// the executor's bind, gap solves, sweep, result document, archive write
// and index insert.
func (r *replayer) cold(f *family, arrival int) error {
	root := r.tr.begin(spRootPrefix+opCold, noParent, arrival)
	defer r.tr.end(root)
	call := r.spanned(root, arrival)
	fam, canonical, stored, err := front(f, r.store, call)
	if err != nil {
		return err
	}
	if stored != nil {
		return fmt.Errorf("%s: already archived before its cold run", f.Name)
	}
	if err := call(spBind, func() error {
		_, _, err := fam.Bind()
		return err
	}); err != nil {
		return err
	}
	cells := fam.Scenarios()
	var specs []analysis.RunSpec
	if err := call(spBindCells, func() (err error) {
		specs, err = scenario.BindScenarios(cells)
		return err
	}); err != nil {
		return err
	}
	// Gap first, memoized per graph, so the sweep span covers only the
	// harness and the round loop.
	seen := map[*graph.Graph]bool{}
	for _, spec := range specs {
		g := spec.Balancing.Graph()
		if seen[g] {
			continue
		}
		seen[g] = true
		name := spGap
		if _, analytic := g.Nu2(); analytic {
			name += analyticSuffix
		} else if r.timed {
			r.solves++
		}
		call(name, func() error {
			spectral.Gap(spec.Balancing)
			return nil
		})
	}
	var results []analysis.RunResult
	call(spSweep, func() error {
		results = analysis.SweepContext(context.Background(), specs, analysis.SweepOptions{})
		return nil
	})
	metas := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		metas[i] = c.Columns()
	}
	var doc []byte
	if err := call(spBuild, func() (err error) {
		doc, _, err = archive.BuildResultDoc(fam.Name, f.Digest, metas, specs, results)
		return err
	}); err != nil {
		return err
	}
	if err := call(spPut, func() error {
		_, err := r.store.Put(f.Digest, canonical, doc)
		return err
	}); err != nil {
		return err
	}
	if err := call(spIndexAdd, func() error {
		return r.index.Add(f.Digest, canonical, doc)
	}); err != nil {
		return err
	}
	r.results[f.Digest] = doc
	if r.timed {
		r.bytes += len(canonical) + len(doc)
	}
	return nil
}

// hit replays an archived re-POST: the front half, which must find the
// entry.
func (r *replayer) hit(f *family, arrival int) error {
	root := r.tr.begin(spRootPrefix+opHit, noParent, arrival)
	defer r.tr.end(root)
	_, _, stored, err := front(f, r.store, r.spanned(root, arrival))
	if err == nil && stored == nil {
		err = fmt.Errorf("%s: not archived at its hit", f.Name)
	}
	return err
}

// read replays a query (parse, evaluate, encode) or a diff (align,
// encode) and returns the encoded answer.
func (r *replayer) read(o *op, arrival int) ([]byte, error) {
	root := r.tr.begin(spRootPrefix+o.Kind, noParent, arrival)
	defer r.tr.end(root)
	return evalRead(o, r.index, r.spanned(root, arrival))
}

// evalRead evaluates a read op against ix exactly as the server's handlers
// do, passing each layer call through step.
func evalRead(o *op, ix *archive.Index, call step) ([]byte, error) {
	var buf bytes.Buffer
	if o.Kind == opDiff {
		var rep *archive.DiffReport
		if err := call(spDiff, func() (err error) {
			rep, err = ix.Diff(o.DiffA, o.DiffB)
			return err
		}); err != nil {
			return nil, err
		}
		err := call(spEncode, func() error { return archive.EncodeJSON(&buf, rep) })
		return buf.Bytes(), err
	}
	var q archive.Query
	if err := call(spParseQuery, func() (err error) {
		q, err = archive.ParseQuerySpec(o.Query)
		return err
	}); err != nil {
		return nil, err
	}
	var res *archive.Result
	if err := call(spQuery, func() (err error) {
		res, err = ix.Query(q)
		return err
	}); err != nil {
		return nil, err
	}
	err := call(spEncode, func() error { return res.Encode(&buf, "") })
	return buf.Bytes(), err
}

// replay runs the plan through the replayer: the hot-set warm (arrival -1,
// excluded from the per-layer figures) and then every phase's ops in
// order. Each hit and read also runs once untraced, alternating which goes
// first, to measure what the spans cost. It returns the first op error.
func (r *replayer) replay(p *plan, deadline time.Time) (tracedNs, untracedNs int64, err error) {
	for _, f := range p.Hot {
		if err := r.cold(f, setupArrival); err != nil {
			return 0, 0, fmt.Errorf("replaying the hot-set warm: %w", err)
		}
	}
	r.timed = true
	n := 0
	for i := range p.Phases {
		for j := range p.Phases[i].Ops {
			o := &p.Phases[i].Ops[j]
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("the run's deadline passed at op %d", o.ID)
			}
			if o.Kind == opCold {
				if err := r.cold(o.Fam, o.ID); err != nil {
					return 0, 0, err
				}
				continue
			}
			traced := func() error {
				start := len(r.tr.spans)
				var err error
				if o.Kind == opHit {
					err = r.hit(o.Fam, o.ID)
				} else {
					_, err = r.read(o, o.ID)
				}
				tracedNs += r.tr.spans[start].End - r.tr.spans[start].Start
				return err
			}
			plain := func() error {
				t := time.Now()
				var err error
				if o.Kind == opHit {
					_, _, _, err = front(o.Fam, r.store, untimed)
				} else {
					_, err = evalRead(o, r.index, untimed)
				}
				untracedNs += int64(time.Since(t))
				return err
			}
			first, second := traced, plain
			if n%2 == 1 {
				first, second = plain, traced
			}
			n++
			if err := first(); err != nil {
				return 0, 0, err
			}
			if err := second(); err != nil {
				return 0, 0, err
			}
		}
	}
	return tracedNs, untracedNs, nil
}
