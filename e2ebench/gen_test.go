package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestPlanDeterministic: one seed gives byte-identical arrival lists.
func TestPlanDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a := mustJSON(t, mustPlan(t, wl, 7))
		if !bytes.Equal(a, mustJSON(t, mustPlan(t, wl, 7))) {
			t.Errorf("%s: two plans of seed 7 differ", wl)
		}
		if bytes.Equal(a, mustJSON(t, mustPlan(t, wl, 8))) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", wl)
		}
	}
}

// TestSeedsDisjoint: cold families are never-seen — distinct within a
// plan, disjoint between seeds, and never in any seed's hot set — and hits
// and reads only touch families archived before them.
func TestSeedsDisjoint(t *testing.T) {
	seeds := []uint32{0, 1, 2, 1 << 31}
	for _, wl := range workloads {
		hot := map[string]bool{}
		coldSeed := map[string]uint32{}
		for _, seed := range seeds {
			p := mustPlan(t, wl, seed)
			archived := map[string]bool{}
			for _, f := range p.Hot {
				hot[f.Digest] = true
				archived[f.Digest] = true
			}
			for _, ph := range p.Phases {
				for _, o := range ph.Ops {
					switch o.Kind {
					case opCold:
						if prev, ok := coldSeed[o.Fam.Digest]; ok {
							t.Fatalf("%s: cold family %s of seed %d repeats one of seed %d", wl, o.Fam.Name, seed, prev)
						}
						coldSeed[o.Fam.Digest] = seed
						archived[o.Fam.Digest] = true
					case opHit:
						if !archived[o.Fam.Digest] {
							t.Fatalf("%s seed %d: hit on %s before it is archived", wl, seed, o.Fam.Name)
						}
					case opDiff:
						if !archived[o.DiffA] || !archived[o.DiffB] || o.DiffA == o.DiffB {
							t.Fatalf("%s seed %d: diff of %s and %s", wl, seed, o.DiffA, o.DiffB)
						}
					}
				}
			}
		}
		for d := range coldSeed {
			if hot[d] {
				t.Fatalf("%s: cold family %s is in a hot set", wl, d)
			}
		}
		if len(coldSeed) == 0 {
			t.Fatalf("%s: no cold families", wl)
		}
	}
}

func mustPlan(t *testing.T, wl string, seed uint32) *plan {
	t.Helper()
	p, err := newPlan(wl, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
