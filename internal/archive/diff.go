package archive

import (
	"strconv"

	"detlb/internal/columns"
)

// Diff semantics: two entries align cell-by-cell on the canonical
// descriptor key — graph|algo|workload|schedule|topology|metric — not on
// cell ordinal, so re-ordered or partially overlapping families still
// compare the cells that describe the same experiment. Duplicate
// descriptors within one family (legal: a family may repeat a cell)
// disambiguate by occurrence ordinal. Aligned cells compare every result
// column; keys present on one side only are structural additions/removals.

// DiffStatus values for DiffReport.Status.
const (
	// DiffIdentical: every cell aligned and every compared column matched.
	DiffIdentical = "identical"
	// DiffDiffers: at least one delta or structural difference.
	DiffDiffers = "differs"
)

// FieldDelta is one differing column of one aligned cell pair. A and B are
// the two values in their deterministic text form; Delta is B−A for
// numeric columns (absent for string columns and for boolean flips, where
// A and B speak for themselves).
type FieldDelta struct {
	Column string  `json:"column,omitempty"`
	A      string  `json:"a,omitempty"`
	B      string  `json:"b,omitempty"`
	Delta  float64 `json:"delta,omitempty"`
}

// CellDiff is one aligned cell pair with at least one differing column.
type CellDiff struct {
	Key    string       `json:"key,omitempty"`
	Fields []FieldDelta `json:"fields,omitempty"`
}

// DiffReport is the outcome of aligning two archive entries.
type DiffReport struct {
	A       string `json:"a,omitempty"`
	B       string `json:"b,omitempty"`
	Status  string `json:"status,omitempty"`
	CellsA  int    `json:"cells_a,omitempty"`
	CellsB  int    `json:"cells_b,omitempty"`
	Aligned int    `json:"aligned,omitempty"`
	// Differing lists aligned cells with deltas, in side-A cell order.
	Differing []CellDiff `json:"differing,omitempty"`
	// OnlyA/OnlyB are descriptor keys present on one side only, in that
	// side's cell order.
	OnlyA []string `json:"only_a,omitempty"`
	OnlyB []string `json:"only_b,omitempty"`
}

// diffSkip holds the columns Diff never compares: entry identity (the two
// sides differ by construction) and the descriptor components that make up
// the alignment key (equal whenever the key aligns).
var diffSkip = map[string]bool{
	columns.Digest:       true,
	columns.Name:         true,
	columns.Cell:         true,
	columns.Graph:        true,
	columns.GraphKind:    true,
	columns.Algo:         true,
	columns.AlgoKind:     true,
	columns.Workload:     true,
	columns.WorkloadKind: true,
	columns.Schedule:     true,
	columns.Topology:     true,
	columns.Metric:       true,
}

// diffColumns are the compared columns, in registry order.
var diffColumns = func() []*column {
	var out []*column
	for i := range table {
		if !diffSkip[table[i].Name] {
			out = append(out, &table[i])
		}
	}
	return out
}()

// Diff aligns entries a and b cell-by-cell and reports their deltas. Both
// digests must name complete archived entries (ErrNotFound otherwise); a
// corrupt entry surfaces as ErrCorrupt from the index refresh.
func (ix *Index) Diff(a, b string) (*DiffReport, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refreshLocked(); err != nil {
		return nil, err
	}
	rowsA, ok := ix.rows[a]
	if !ok {
		return nil, errNotIndexed(a)
	}
	rowsB, ok := ix.rows[b]
	if !ok {
		return nil, errNotIndexed(b)
	}
	rep := &DiffReport{A: a, B: b, CellsA: len(rowsA), CellsB: len(rowsB)}
	keysA, keysB := cellKeys(rowsA), cellKeys(rowsB)
	byKeyB := make(map[string]*row, len(rowsB))
	for i := range rowsB {
		byKeyB[keysB[i]] = &rowsB[i]
	}
	matched := make(map[string]bool, len(rowsA))
	for i := range rowsA {
		rb, ok := byKeyB[keysA[i]]
		if !ok {
			rep.OnlyA = append(rep.OnlyA, keysA[i])
			continue
		}
		matched[keysA[i]] = true
		rep.Aligned++
		if fields := diffCell(&rowsA[i], rb); len(fields) > 0 {
			rep.Differing = append(rep.Differing, CellDiff{Key: keysA[i], Fields: fields})
		}
	}
	for _, k := range keysB {
		if !matched[k] {
			rep.OnlyB = append(rep.OnlyB, k)
		}
	}
	rep.Status = DiffIdentical
	if len(rep.Differing) > 0 || len(rep.OnlyA) > 0 || len(rep.OnlyB) > 0 {
		rep.Status = DiffDiffers
	}
	return rep, nil
}

// cellKeys renders each row's canonical descriptor key, disambiguating
// duplicates with an occurrence ordinal ("…#2" for the second occurrence).
func cellKeys(rows []row) []string {
	keys := make([]string, len(rows))
	seen := make(map[string]int, len(rows))
	for i := range rows {
		r := &rows[i]
		k := r.cols.Graph + "|" + r.cols.Algo + "|" + r.cols.Workload + "|" + r.cols.Schedule + "|" + r.cols.Topology + "|" + r.res.Metric
		seen[k]++
		if n := seen[k]; n > 1 {
			k += "#" + strconv.Itoa(n)
		}
		keys[i] = k
	}
	return keys
}

// diffCell compares one aligned pair across the compared columns.
func diffCell(a, b *row) []FieldDelta {
	var out []FieldDelta
	for _, col := range diffColumns {
		va, vb := col.read(a), col.read(b)
		if va.compare(vb) == 0 {
			continue
		}
		d := FieldDelta{Column: col.Name, A: va.render(), B: vb.render()}
		if col.Kind == columns.Int || col.Kind == columns.Float {
			d.Delta = vb.num() - va.num()
		}
		out = append(out, d)
	}
	return out
}
