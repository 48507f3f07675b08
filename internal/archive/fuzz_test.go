package archive

import (
	"bytes"
	"strings"
	"testing"

	"detlb/internal/trace"
)

// FuzzQuerySpec fuzzes the query grammar that GET /v1/archive/query and
// lbquery parse from untrusted text. The four strings are the where, select,
// group and agg parameters; each holds newline-separated repeated entries.
// Parsing must never panic, and an accepted query must evaluate on a small
// fixed index without error or panic, to the same JSON and CSV bytes twice.
func FuzzQuerySpec(f *testing.F) {
	for _, seed := range [][4]string{
		// analytics_test.go
		{"graph_kind=torus", "digest,name,rounds,final_discrepancy", "", ""},
		{"", "", "graph_kind", "count\nmean(shock_recovery_rounds_mean)\nmax(shock_peak_discrepancy_max)"},
		{"graph_kind=cycle\nrounds>=10\nerror=\nstopped_early=false", "", "graph_kind,algo_kind", "count\nmean(rounds)\nmax(final_discrepancy)"},
		{"graph_kind=torus", "digest\ngraph_kind\nrounds", "", ""},
		{"graph~cube\nfinal_discrepancy<=1", "name", "", ""},
		{"name~probe-", "name,shocks,shocks_recovered,shock_recovery_rounds_max,shock_recovery_rounds_mean," +
			"faults,faults_recovered,fault_recovery_rounds_max,fault_recovery_rounds_mean", "", ""},
		{"", "", "graph_kind", "count\nmax(shock_recovery_rounds_max)\nmean(rounds)"},
		{"n>999999", "", "", "count\nmean(rounds)"},
		{"graph_kind=hypercube", "", "", ""},
		{"nosuchcolumn=1", "", "", ""},
		{"graph<cycle", "", "", ""},
		{"rounds~5", "", "", ""},
		{"rounds=abc", "", "", ""},
		{"stopped_early=yes", "", "", ""},
		{"stopped_early<true", "", "", ""},
		{"=5", "", "", ""},
		{"rounds", "", "", ""},
		{"", "rounds", "graph_kind", ""},
		{"", "", "", "median(rounds)"},
		{"", "", "", "min(graph)"},
		{"", "", "", "count(rounds)"},
		{"", "", "", "min"},
		// docs/archive.md
		{"", "", "graph_kind", "count,mean(shock_recovery_rounds_mean)"},
		{"", "", "graph_kind", "count,mean(shock_recovery_rounds_mean),max(shock_recovery_rounds_max)"},
		{"graph_kind=torus\nshocks>0\nreached_target=false", "digest,cell,rounds,final_discrepancy", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	arch, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for i, g := range synthGraphs {
		putSynthEntry(f, arch, "synth-"+g, g, synthResult(i))
	}
	events := synthResult(7)
	events.Faults = []trace.FaultEvent{
		{Round: 3, FailedLinks: 2, Components: 2, Gap: 0.1, Discrepancy: 12, PeakDiscrepancy: 20, RecoveryRound: 9, RecoveryRounds: 6},
		{Round: 11, RestoredLinks: 2, Components: 1, Gap: 0.2, Discrepancy: 5, PeakDiscrepancy: 5, RecoveryRound: -1, RecoveryRounds: -1},
	}
	putSynthEntry(f, arch, "events", "cycle:8", events)
	ix := NewIndex(arch)

	list := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, "\n")
	}
	encode := func(t *testing.T, q Query) (js, csv []byte) {
		res, err := ix.Query(q)
		if err != nil {
			t.Fatalf("accepted query %+v failed: %v", q, err)
		}
		var jb, cb bytes.Buffer
		if err := res.WriteJSON(&jb); err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		if err := res.WriteCSV(&cb); err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		return jb.Bytes(), cb.Bytes()
	}
	f.Fuzz(func(t *testing.T, where, sel, group, agg string) {
		q, err := ParseQuerySpec(QuerySpec{Where: list(where), Select: list(sel), Group: list(group), Aggs: list(agg)})
		if err != nil {
			return
		}
		js1, csv1 := encode(t, q)
		js2, csv2 := encode(t, q)
		if !bytes.Equal(js1, js2) || !bytes.Equal(csv1, csv2) {
			t.Fatalf("query %+v: two evaluations differ", q)
		}
	})
}
