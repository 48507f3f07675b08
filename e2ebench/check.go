package main

// Offline checks of the served outputs. Each mismatch counts as a failed
// operation.

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
)

// rederiveSample is how many cold families an untraced run re-derives
// offline; the traced run re-derives every one.
const rederiveSample = 4

// rederive recomputes f's result document offline — Bind, Sweep,
// BuildResultDoc — and compares it byte for byte with the served one.
func rederive(f *family, served []byte) error {
	fam, err := scenario.Load(bytes.NewReader(f.Body))
	if err != nil {
		return err
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		return err
	}
	results := analysis.Sweep(specs, analysis.SweepOptions{})
	metas := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		metas[i] = c.Columns()
	}
	doc, _, err := archive.BuildResultDoc(fam.Name, f.Digest, metas, specs, results)
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, served) {
		return fmt.Errorf("%s: served result.json differs from its offline re-derivation", f.Name)
	}
	return nil
}

// coldFamilies lists the plan's cold families in op order.
func coldFamilies(p *plan) []*family {
	var out []*family
	for i := range p.Phases {
		for j := range p.Phases[i].Ops {
			if o := &p.Phases[i].Ops[j]; o.Kind == opCold {
				out = append(out, o.Fam)
			}
		}
	}
	return out
}

// checkSample re-derives a seeded sample of the cold families.
func checkSample(p *plan, sv *served) {
	cold := coldFamilies(p)
	rng := rand.New(rand.NewPCG(uint64(p.Seed), 0x73616d706c65))
	for _, i := range rng.Perm(len(cold))[:min(rederiveSample, len(cold))] {
		f := cold[i]
		sv.check(rederive(f, sv.results[f.Digest]))
	}
}

// checkReads evaluates every distinct read of the plan against an offline
// index over the served archive directory; each served answer must match
// byte for byte.
func checkReads(p *plan, sv *served, dir string) error {
	store, err := archive.Open(dir)
	if err != nil {
		return err
	}
	ix := archive.NewIndex(store)
	done := map[string]bool{}
	for i := range p.Phases {
		for j := range p.Phases[i].Ops {
			o := &p.Phases[i].Ops[j]
			path := o.path()
			if o.Kind != opQuery && o.Kind != opDiff || done[path] {
				continue
			}
			done[path] = true
			got, ok := sv.reads[path]
			if !ok {
				continue // the served read failed and is already counted
			}
			want, err := evalRead(o, ix, untimed)
			if err != nil {
				err = fmt.Errorf("offline %s: %w", path, err)
			} else if !bytes.Equal(got, want) {
				err = fmt.Errorf("%s: served answer differs from the offline index", path)
			}
			sv.check(err)
		}
	}
	return nil
}
