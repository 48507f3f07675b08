// Command lbquery is the archive analytics CLI: it lists, queries, diffs,
// and describes content-addressed run archives, speaking the same query
// grammar as lbserve's GET /v1/archive endpoints.
//
// Two modes select where the archive lives:
//
//   - -dir DIR (the default, lbserve-archive): open the archive directory
//     and evaluate locally — no server needed.
//   - -base URL: send the query to a running lbserve and stream its response
//     verbatim.
//
// Both modes evaluate through the same index/query/encoder code path, so for
// the same archive state their output is byte-identical — a replay contract
// the serving tests pin.
//
// Usage:
//
//	lbquery [-dir DIR | -base URL] <command> [flags]
//
//	lbquery list    [-where CLAUSE]...
//	lbquery query   [-where CLAUSE]... [-select COLS] [-group COLS]
//	                [-agg AGG]... [-format json|csv]
//	lbquery diff    DIGEST_A DIGEST_B
//	lbquery columns
//
// Where clauses are column<op>value with =, !=, <, <=, >, >= on numeric and
// boolean columns and =, !=, ~ (substring) on string columns. -select,
// -group, and -agg take comma-separated lists ("count", "mean(rounds)", …)
// and repeat. See docs/archive.md for the grammar and the column table.
//
// Examples:
//
//	lbquery -dir lbserve-archive query -where graph_kind=torus \
//	    -select digest,rounds,final_discrepancy
//	lbquery query -group graph_kind -agg count,mean(shock_recovery_rounds_mean)
//	lbquery -base http://127.0.0.1:8080 diff <digestA> <digestB>
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"detlb/internal/archive"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lbquery", flag.ContinueOnError)
	dir := fs.String("dir", "lbserve-archive", "archive directory (local mode)")
	base := fs.String("base", "", "lbserve base URL (remote mode; overrides -dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "lbquery: want a command: list, query, diff, or columns")
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	qf := flag.NewFlagSet("lbquery "+cmd, flag.ContinueOnError)
	var where, sel, group, aggs multiFlag
	format := qf.String("format", "", "output format: json (default) or csv")
	switch cmd {
	case "list":
		qf.Var(&where, "where", "filter clause column<op>value (repeatable)")
	case "query":
		qf.Var(&where, "where", "filter clause column<op>value (repeatable)")
		qf.Var(&sel, "select", "columns to project, comma-separated (repeatable)")
		qf.Var(&group, "group", "group-by columns, comma-separated (repeatable)")
		qf.Var(&aggs, "agg", "aggregates: count or op(column), comma-separated (repeatable)")
	case "diff", "columns":
	default:
		fmt.Fprintf(os.Stderr, "lbquery: unknown command %q (want list, query, diff, or columns)\n", cmd)
		return 2
	}
	if err := qf.Parse(rest); err != nil {
		return 2
	}
	if *format != "" && *format != "json" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "lbquery: unknown format %q (want json or csv)\n", *format)
		return 2
	}
	if cmd == "diff" && qf.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "lbquery: diff wants two digests")
		return 2
	}

	var err error
	if *base != "" {
		err = runRemote(stdout, *base, cmd, where, sel, group, aggs, *format, qf.Args())
	} else {
		err = runLocal(stdout, *dir, cmd, where, sel, group, aggs, *format, qf.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbquery: %v\n", err)
		return 1
	}
	return 0
}

// runLocal evaluates against the archive directory through the same index
// and encoders the server uses.
func runLocal(stdout io.Writer, dir, cmd string, where, sel, group, aggs []string, format string, args []string) error {
	store, err := archive.Open(dir)
	if err != nil {
		return err
	}
	ix := archive.NewIndex(store)
	switch cmd {
	case "list":
		q, err := archive.ParseQuerySpec(archive.QuerySpec{Where: where})
		if err != nil {
			return err
		}
		entries, err := ix.Entries(q.Where)
		if err != nil {
			return err
		}
		return archive.EncodeJSON(stdout, entries)
	case "query":
		q, err := archive.ParseQuerySpec(archive.QuerySpec{Where: where, Select: sel, Group: group, Aggs: aggs})
		if err != nil {
			return err
		}
		res, err := ix.Query(q)
		if err != nil {
			return err
		}
		return res.Encode(stdout, format)
	case "diff":
		rep, err := ix.Diff(args[0], args[1])
		if err != nil {
			return err
		}
		return archive.EncodeJSON(stdout, rep)
	default: // columns
		return archive.EncodeJSON(stdout, archive.ColumnTable())
	}
}

// runRemote sends the equivalent GET to a running lbserve and streams the
// response body verbatim, so remote output is exactly the server's bytes.
func runRemote(stdout io.Writer, base, cmd string, where, sel, group, aggs []string, format string, args []string) error {
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("base url: %w", err)
	}
	params := url.Values{}
	switch cmd {
	case "list":
		u.Path = strings.TrimSuffix(u.Path, "/") + "/v1/archive"
		params["where"] = where
	case "query":
		u.Path = strings.TrimSuffix(u.Path, "/") + "/v1/archive/query"
		params["where"] = where
		params["select"] = sel
		params["group"] = group
		params["agg"] = aggs
		if format != "" {
			params.Set("format", format)
		}
	case "diff":
		u.Path = strings.TrimSuffix(u.Path, "/") + "/v1/archive/diff"
		params.Set("a", args[0])
		params.Set("b", args[1])
	default: // columns
		u.Path = strings.TrimSuffix(u.Path, "/") + "/v1/archive/columns"
	}
	u.RawQuery = params.Encode()
	resp, err := http.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = io.Copy(stdout, resp.Body)
	return err
}
