package archive

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"detlb/internal/columns"
)

// The query grammar, shared verbatim by GET /v1/archive/query and cmd/
// lbquery: a Query filters indexed cells with typed where-clauses, then
// either projects named columns (plain mode) or groups by descriptor
// columns and aggregates (grouped mode). Evaluation is deterministic by
// construction — rows visit in (digest, cell) order, groups emit in sorted
// key order — so the same archive directory produces byte-identical
// results in any process, any number of times.

// Filter is one where-clause: column, operator, literal. String columns
// accept =, != and ~ (substring); int, float, and bool columns accept
// =, !=, <, <=, >, >= (bool literals are "true"/"false").
type Filter struct {
	Col   string
	Op    string
	Value string
}

// Agg is one aggregate: "count" (no column), or min/max/mean/sum over a
// numeric column.
type Agg struct {
	Op  string
	Col string
}

// Name renders the aggregate's output-column header.
func (a Agg) Name() string {
	if a.Op == "count" {
		return "count"
	}
	return a.Op + "(" + a.Col + ")"
}

// Query is a typed archive query. Zero value: project every queryable
// column of every indexed cell.
type Query struct {
	// Where filters cells; clauses are conjunctive.
	Where []Filter
	// Select projects named columns (plain mode; empty = all columns).
	// Mutually exclusive with GroupBy/Aggs.
	Select []string
	// GroupBy switches to grouped mode: one output row per distinct value
	// tuple of these columns.
	GroupBy []string
	// Aggs are the grouped mode's aggregate output columns; empty with a
	// GroupBy means a bare count.
	Aggs []Agg
}

// Result is a query's output table. Rows hold JSON-native values (string,
// int64, float64, bool, or nil for an aggregate over zero cells) in
// Columns order.
type Result struct {
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
}

// --- parsing (the text form of the grammar) ---

// QuerySpec is the raw text form of a Query — the repeated where/select/
// group/agg parameters of GET /v1/archive/query and the equivalent lbquery
// flags. Select, Group, and Aggs entries may carry comma-separated lists.
type QuerySpec struct {
	Where  []string
	Select []string
	Group  []string
	Aggs   []string
}

// filterOps lists the operators in scan order: two-character operators
// first, so "<=" never parses as "<" against "=...".
var filterOps = []string{"<=", ">=", "!=", "=", "<", ">", "~"}

// ParseQuerySpec parses and validates the text form. The returned Query
// compiles cleanly — every column exists, every operator and literal fits
// its column's kind.
func ParseQuerySpec(spec QuerySpec) (Query, error) {
	q := Query{
		Select:  splitList(spec.Select),
		GroupBy: splitList(spec.Group),
	}
	for _, clause := range spec.Where {
		f, err := parseFilter(clause)
		if err != nil {
			return Query{}, err
		}
		q.Where = append(q.Where, f)
	}
	for _, a := range splitList(spec.Aggs) {
		agg, err := parseAgg(a)
		if err != nil {
			return Query{}, err
		}
		q.Aggs = append(q.Aggs, agg)
	}
	if _, err := q.compile(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// splitList flattens repeated, possibly comma-separated entries.
func splitList(entries []string) []string {
	var out []string
	for _, e := range entries {
		for _, part := range strings.Split(e, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

// parseFilter splits one "column<op>literal" clause. The operator starts at
// the first character a column name cannot contain.
func parseFilter(clause string) (Filter, error) {
	i := strings.IndexFunc(clause, func(r rune) bool {
		return !(r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'))
	})
	if i <= 0 {
		return Filter{}, fmt.Errorf("archive: where clause %q: want column<op>value", clause)
	}
	rest := clause[i:]
	for _, op := range filterOps {
		if strings.HasPrefix(rest, op) {
			return Filter{Col: clause[:i], Op: op, Value: rest[len(op):]}, nil
		}
	}
	return Filter{}, fmt.Errorf("archive: where clause %q: unknown operator (want =, !=, <, <=, >, >=, or ~)", clause)
}

// parseAgg parses "count" or "op(col)".
func parseAgg(s string) (Agg, error) {
	if s == "count" {
		return Agg{Op: "count"}, nil
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Agg{}, fmt.Errorf("archive: aggregate %q: want count or op(column)", s)
	}
	return Agg{Op: s[:open], Col: s[open+1 : len(s)-1]}, nil
}

// --- compilation (validation against the column registry) ---

type compiledFilter struct {
	col *column
	op  string
	str string
	num float64
}

type compiledQuery struct {
	where   []compiledFilter
	sel     []*column // plain mode projection
	groupBy []*column
	aggs    []Agg
	aggCols []*column // aggs[i]'s column; nil for count
	grouped bool
}

func (q Query) compile() (*compiledQuery, error) {
	cq := &compiledQuery{grouped: len(q.GroupBy) > 0 || len(q.Aggs) > 0}
	var err error
	if cq.where, err = compileFilters(q.Where); err != nil {
		return nil, err
	}
	if cq.grouped && len(q.Select) > 0 {
		return nil, fmt.Errorf("archive: select cannot be combined with group/agg (the output columns are the group keys plus the aggregates)")
	}
	for _, name := range q.GroupBy {
		col, ok := tableByName[name]
		if !ok {
			return nil, fmt.Errorf("archive: unknown group column %q", name)
		}
		cq.groupBy = append(cq.groupBy, col)
	}
	cq.aggs = q.Aggs
	if cq.grouped && len(cq.aggs) == 0 {
		cq.aggs = []Agg{{Op: "count"}}
	}
	cq.aggCols = make([]*column, len(cq.aggs))
	for i, a := range cq.aggs {
		switch a.Op {
		case "count":
			if a.Col != "" {
				return nil, fmt.Errorf("archive: count takes no column (got %q)", a.Col)
			}
		case "min", "max", "mean", "sum":
			col, ok := tableByName[a.Col]
			if !ok {
				return nil, fmt.Errorf("archive: unknown aggregate column %q", a.Col)
			}
			if col.Kind == columns.String {
				return nil, fmt.Errorf("archive: %s(%s): cannot aggregate a string column", a.Op, a.Col)
			}
			cq.aggCols[i] = col
		default:
			return nil, fmt.Errorf("archive: unknown aggregate %q (want count, min, max, mean, or sum)", a.Op)
		}
	}
	if !cq.grouped {
		if len(q.Select) == 0 {
			for i := range table {
				cq.sel = append(cq.sel, &table[i])
			}
		}
		for _, name := range q.Select {
			col, ok := tableByName[name]
			if !ok {
				return nil, fmt.Errorf("archive: unknown select column %q", name)
			}
			cq.sel = append(cq.sel, col)
		}
	}
	return cq, nil
}

func compileFilters(where []Filter) ([]compiledFilter, error) {
	var out []compiledFilter
	for _, f := range where {
		col, ok := tableByName[f.Col]
		if !ok {
			return nil, fmt.Errorf("archive: unknown filter column %q", f.Col)
		}
		cf := compiledFilter{col: col, op: f.Op}
		switch col.Kind {
		case columns.String:
			switch f.Op {
			case "=", "!=", "~":
				cf.str = f.Value
			default:
				return nil, fmt.Errorf("archive: filter %s%s%s: operator %q does not apply to a string column",
					f.Col, f.Op, f.Value, f.Op)
			}
		case columns.Bool:
			if f.Op != "=" && f.Op != "!=" {
				return nil, fmt.Errorf("archive: filter %s%s%s: bool columns compare with = or != only",
					f.Col, f.Op, f.Value)
			}
			switch f.Value {
			case "true":
				cf.num = 1
			case "false":
				cf.num = 0
			default:
				return nil, fmt.Errorf("archive: filter %s%s%s: want true or false", f.Col, f.Op, f.Value)
			}
		default:
			switch f.Op {
			case "=", "!=", "<", "<=", ">", ">=":
			default:
				return nil, fmt.Errorf("archive: filter %s%s%s: operator %q does not apply to a numeric column",
					f.Col, f.Op, f.Value, f.Op)
			}
			num, err := strconv.ParseFloat(f.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("archive: filter %s%s%s: %q is not a number", f.Col, f.Op, f.Value, f.Value)
			}
			cf.num = num
		}
		out = append(out, cf)
	}
	return out, nil
}

func (cf *compiledFilter) match(r *row) bool {
	v := cf.col.read(r)
	if cf.col.Kind == columns.String {
		switch cf.op {
		case "=":
			return v.s == cf.str
		case "!=":
			return v.s != cf.str
		default: // "~"
			return strings.Contains(v.s, cf.str)
		}
	}
	x := v.num()
	switch cf.op {
	case "=":
		return x == cf.num
	case "!=":
		return x != cf.num
	case "<":
		return x < cf.num
	case "<=":
		return x <= cf.num
	case ">":
		return x > cf.num
	default: // ">="
		return x >= cf.num
	}
}

func matchAll(filters []compiledFilter, r *row) bool {
	for i := range filters {
		if !filters[i].match(r) {
			return false
		}
	}
	return true
}

// --- values ---

// value is one cell of one queryable column, tagged with its kind.
type value struct {
	kind columns.Kind
	s    string
	i    int64
	f    float64
}

func stringVal(s string) value { return value{kind: columns.String, s: s} }
func intVal(i int64) value     { return value{kind: columns.Int, i: i} }
func floatVal(f float64) value { return value{kind: columns.Float, f: f} }
func boolVal(b bool) value {
	v := value{kind: columns.Bool}
	if b {
		v.i = 1
	}
	return v
}

// num is the value on the aggregation/comparison axis.
func (v value) num() float64 {
	switch v.kind {
	case columns.Float:
		return v.f
	default:
		return float64(v.i)
	}
}

// jsonValue is the value as the JSON encoding renders it.
func (v value) jsonValue() any {
	switch v.kind {
	case columns.String:
		return v.s
	case columns.Int:
		return v.i
	case columns.Float:
		return v.f
	default:
		return v.i != 0
	}
}

// render is the value's deterministic text form (CSV cells, diff fields).
func (v value) render() string {
	if v.kind == columns.String {
		return v.s
	}
	return string(v.appendText(nil))
}

// appendText appends the text form to b (group keys, without allocating).
func (v value) appendText(b []byte) []byte {
	switch v.kind {
	case columns.String:
		return append(b, v.s...)
	case columns.Int:
		return strconv.AppendInt(b, v.i, 10)
	case columns.Float:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	default:
		return strconv.AppendBool(b, v.i != 0)
	}
}

// compare orders two values of the same column: strings lexicographically,
// everything else numerically.
func (v value) compare(o value) int {
	if v.kind == columns.String {
		return strings.Compare(v.s, o.s)
	}
	a, b := v.num(), o.num()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// --- evaluation ---

// Query evaluates q over the indexed cells, refreshing the index from the
// store first. The result is deterministic: plain-mode rows in (digest,
// cell) order, grouped-mode rows in sorted group-key order.
func (ix *Index) Query(q Query) (*Result, error) {
	cq, err := q.compile()
	if err != nil {
		return nil, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refreshLocked(); err != nil {
		return nil, err
	}
	if cq.grouped {
		return ix.evalGroupedLocked(cq), nil
	}
	return ix.evalPlainLocked(cq), nil
}

func (ix *Index) evalPlainLocked(cq *compiledQuery) *Result {
	res := &Result{}
	for _, col := range cq.sel {
		res.Columns = append(res.Columns, col.Name)
	}
	for _, d := range ix.digests {
		rows := ix.rows[d]
		for i := range rows {
			if !matchAll(cq.where, &rows[i]) {
				continue
			}
			vals := make([]any, len(cq.sel))
			for j, col := range cq.sel {
				vals[j] = col.read(&rows[i]).jsonValue()
			}
			res.Rows = append(res.Rows, vals)
		}
	}
	return res
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	min, max float64
}

func (a *aggState) observe(x float64) {
	if a.count == 0 || x < a.min {
		a.min = x
	}
	if a.count == 0 || x > a.max {
		a.max = x
	}
	a.count++
	a.sum += x
}

// emit renders the aggregate value over col; integral columns keep integral
// min/max/sum, mean is always a float, and an aggregate over zero cells is
// null (count alone is 0).
func (a *aggState) emit(agg Agg, col *column) any {
	if agg.Op == "count" {
		return a.count
	}
	if a.count == 0 {
		return nil
	}
	var x float64
	switch agg.Op {
	case "min":
		x = a.min
	case "max":
		x = a.max
	case "sum":
		x = a.sum
	default: // mean
		return a.sum / float64(a.count)
	}
	if col.Kind != columns.Float {
		return int64(x)
	}
	return x
}

// groupState is one group's key tuple plus its aggregate accumulators.
type groupState struct {
	keys []value
	aggs []aggState
}

func (ix *Index) evalGroupedLocked(cq *compiledQuery) *Result {
	res := &Result{}
	for _, col := range cq.groupBy {
		res.Columns = append(res.Columns, col.Name)
	}
	for _, a := range cq.aggs {
		res.Columns = append(res.Columns, a.Name())
	}
	groups := map[string]*groupState{}
	if len(cq.groupBy) == 0 {
		// Global aggregation: exactly one output row, even over zero cells.
		groups[""] = &groupState{aggs: make([]aggState, len(cq.aggs))}
	}
	var key []byte
	for _, d := range ix.digests {
		rows := ix.rows[d]
		for i := range rows {
			r := &rows[i]
			if !matchAll(cq.where, r) {
				continue
			}
			// The key buffer is reused across rows; a group's key tuple is
			// only materialized when the group is first seen.
			key = key[:0]
			for _, col := range cq.groupBy {
				key = col.read(r).appendText(key)
				key = append(key, 0x1f)
			}
			g, ok := groups[string(key)]
			if !ok {
				g = &groupState{keys: make([]value, len(cq.groupBy)), aggs: make([]aggState, len(cq.aggs))}
				for j, col := range cq.groupBy {
					g.keys[j] = col.read(r)
				}
				groups[string(key)] = g
			}
			for j, col := range cq.aggCols {
				if col == nil {
					g.aggs[j].count++
					continue
				}
				g.aggs[j].observe(col.read(r).num())
			}
		}
	}
	// Deterministic emission: collect the map's keys, sort, then order the
	// groups naturally (element-wise by key tuple — numeric columns sort
	// numerically, not lexically).
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	ordered := make([]*groupState, len(names))
	for i, k := range names {
		ordered[i] = groups[k]
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		for k := range a.keys {
			if c := a.keys[k].compare(b.keys[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, g := range ordered {
		vals := make([]any, 0, len(g.keys)+len(g.aggs))
		for _, k := range g.keys {
			vals = append(vals, k.jsonValue())
		}
		for j := range g.aggs {
			vals = append(vals, g.aggs[j].emit(cq.aggs[j], cq.aggCols[j]))
		}
		res.Rows = append(res.Rows, vals)
	}
	return res
}

// --- encoding ---

// EncodeJSON writes v exactly as every archive wire surface encodes JSON:
// two-space MarshalIndent plus a trailing newline. The server handlers and
// lbquery's local mode both write through here, so remote and offline
// output are byte-identical.
func EncodeJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("archive: encode: %w", err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("archive: encode: %w", err)
	}
	return nil
}

// WriteJSON emits the result as the canonical indented JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	return EncodeJSON(w, r)
}

// WriteCSV emits the result as CSV: a header row of column names, then one
// record per row with values in their deterministic text form (null
// aggregates render empty).
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return fmt.Errorf("archive: write csv: %w", err)
	}
	rec := make([]string, len(r.Columns))
	for _, vals := range r.Rows {
		for i, v := range vals {
			rec[i] = renderAny(v)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("archive: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("archive: write csv: %w", err)
	}
	return nil
}

// Encode writes the result in the named format: "json" (or empty) or "csv".
func (r *Result) Encode(w io.Writer, format string) error {
	switch format {
	case "", "json":
		return r.WriteJSON(w)
	case "csv":
		return r.WriteCSV(w)
	default:
		return fmt.Errorf("archive: unknown format %q (want json or csv)", format)
	}
}

// renderAny is render() over the JSON-native row value types.
func renderAny(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprint(x)
	}
}
