package archive

import (
	"detlb/internal/columns"
	"detlb/internal/scenario"
)

// row is one archived cell as the index keeps it: its entry identity, its
// descriptor columns, and its result record. The event lists and the
// sampled series are folded into their aggregates when the row is built
// and then dropped, so an indexed row stays small however long the run.
type row struct {
	digest string
	name   string
	cell   int
	cols   scenario.CellColumns
	res    CellResult

	seriesLen int
	shocks    events
	faults    events
}

// events aggregates one cell's shock or fault list. Only recovered events
// (RecoveryRounds ≥ 0; −1 means the event never recovered) enter the
// recovery count, maximum and mean.
type events struct {
	count     int
	recovered int
	recMax    int
	recSum    int
	peakMax   int64
}

func (e *events) add(recoveryRounds int, peak int64) {
	e.count++
	e.peakMax = max(e.peakMax, peak)
	if recoveryRounds >= 0 {
		e.recovered++
		e.recMax = max(e.recMax, recoveryRounds)
		e.recSum += recoveryRounds
	}
}

// recMean is the mean recovery over recovered events, 0 when none did.
func (e *events) recMean() float64 {
	if e.recovered == 0 {
		return 0
	}
	return float64(e.recSum) / float64(e.recovered)
}

// newRow folds one cell into its index row.
func newRow(digest, name string, cell int, cols scenario.CellColumns, c CellResult) row {
	r := row{digest: digest, name: name, cell: cell, cols: cols, seriesLen: len(c.Series)}
	for _, s := range c.Shocks {
		r.shocks.add(s.RecoveryRounds, s.PeakDiscrepancy)
	}
	for _, f := range c.Faults {
		r.faults.add(f.RecoveryRounds, f.PeakDiscrepancy)
	}
	c.Shocks, c.Faults, c.Series = nil, nil, nil
	r.res = c
	return r
}

// column pairs one registry column with its reader over an indexed row.
type column struct {
	columns.Col
	read func(*row) value
}

// bind looks name up in the registry; a name the registry lacks is a
// programming error caught at init.
func bind(name string, read func(*row) value) column {
	col, ok := columns.Lookup(name)
	if !ok {
		panic("archive: column " + name + " is not in the columns registry")
	}
	return column{Col: col, read: read}
}

// table is every queryable column in registry order, and the one place a
// column name meets the cell data: filters, projections, group keys,
// aggregates, CSV and Diff all read through it. A new column is a registry
// constant, a Col row, and one line here; TestColumnTable keeps the two in
// step.
var table = []column{
	bind(columns.Digest, func(r *row) value { return stringVal(r.digest) }),
	bind(columns.Name, func(r *row) value { return stringVal(r.name) }),
	bind(columns.Cell, func(r *row) value { return intVal(int64(r.cell)) }),
	bind(columns.Graph, func(r *row) value { return stringVal(r.cols.Graph) }),
	bind(columns.GraphKind, func(r *row) value { return stringVal(r.cols.GraphKind) }),
	bind(columns.Algo, func(r *row) value { return stringVal(r.cols.Algo) }),
	bind(columns.AlgoKind, func(r *row) value { return stringVal(r.cols.AlgoKind) }),
	bind(columns.Workload, func(r *row) value { return stringVal(r.cols.Workload) }),
	bind(columns.WorkloadKind, func(r *row) value { return stringVal(r.cols.WorkloadKind) }),
	bind(columns.Schedule, func(r *row) value { return stringVal(r.cols.Schedule) }),
	bind(columns.Topology, func(r *row) value { return stringVal(r.cols.Topology) }),
	bind(columns.Metric, func(r *row) value { return stringVal(r.res.Metric) }),
	bind(columns.Error, func(r *row) value { return stringVal(r.res.Err) }),
	bind(columns.N, func(r *row) value { return intVal(int64(r.res.N)) }),
	bind(columns.Degree, func(r *row) value { return intVal(int64(r.res.Degree)) }),
	bind(columns.SelfLoops, func(r *row) value { return intVal(int64(r.res.SelfLoops)) }),
	bind(columns.Gap, func(r *row) value { return floatVal(r.res.Gap) }),
	bind(columns.BalancingTime, func(r *row) value { return intVal(int64(r.res.BalancingTime)) }),
	bind(columns.Horizon, func(r *row) value { return intVal(int64(r.res.Horizon)) }),
	bind(columns.Rounds, func(r *row) value { return intVal(int64(r.res.Rounds)) }),
	bind(columns.InitialDiscrepancy, func(r *row) value { return intVal(r.res.InitialDisc) }),
	bind(columns.FinalDiscrepancy, func(r *row) value { return intVal(r.res.FinalDisc) }),
	bind(columns.MinDiscrepancy, func(r *row) value { return intVal(r.res.MinDisc) }),
	bind(columns.TargetRound, func(r *row) value { return intVal(int64(r.res.TargetRound)) }),
	bind(columns.StoppedEarly, func(r *row) value { return boolVal(r.res.StoppedEarly) }),
	bind(columns.ReachedTarget, func(r *row) value { return boolVal(r.res.ReachedTarget) }),
	bind(columns.Shocks, func(r *row) value { return intVal(int64(r.shocks.count)) }),
	bind(columns.Faults, func(r *row) value { return intVal(int64(r.faults.count)) }),
	bind(columns.SeriesLen, func(r *row) value { return intVal(int64(r.seriesLen)) }),
	bind(columns.ShocksRecovered, func(r *row) value { return intVal(int64(r.shocks.recovered)) }),
	bind(columns.ShockRecoveryRoundsMax, func(r *row) value { return intVal(int64(r.shocks.recMax)) }),
	bind(columns.ShockRecoveryRoundsMean, func(r *row) value { return floatVal(r.shocks.recMean()) }),
	bind(columns.ShockPeakDiscrepancyMax, func(r *row) value { return intVal(r.shocks.peakMax) }),
	bind(columns.FaultsRecovered, func(r *row) value { return intVal(int64(r.faults.recovered)) }),
	bind(columns.FaultRecoveryRoundsMax, func(r *row) value { return intVal(int64(r.faults.recMax)) }),
	bind(columns.FaultRecoveryRoundsMean, func(r *row) value { return floatVal(r.faults.recMean()) }),
	bind(columns.FaultPeakDiscrepancyMax, func(r *row) value { return intVal(r.faults.peakMax) }),
}

// tableByName indexes table for query compilation; built once at init.
var tableByName = func() map[string]*column {
	m := make(map[string]*column, len(table))
	for i := range table {
		m[table[i].Name] = &table[i]
	}
	return m
}()

// ColumnRecord is the wire form of one queryable column: an element of
// GET /v1/archive/columns and of `lbquery columns`.
type ColumnRecord struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
	Doc  string `json:"doc,omitempty"`
}

// ColumnTable lists the queryable columns in registry order, so clients can
// discover the grammar without shipping the registry.
func ColumnTable() []ColumnRecord {
	out := make([]ColumnRecord, len(table))
	for i, col := range table {
		out[i] = ColumnRecord{Name: col.Name, Kind: col.Kind.String(), Doc: col.Doc}
	}
	return out
}
