package serve

// The archive analytics endpoints: the HTTP face of internal/archive's
// Index. All three evaluate through the shared query layer — cmd/lbquery's
// local mode calls the same functions over the same directory, and the
// encoders are shared (archive.EncodeJSON, Result.Encode), so remote and
// offline output are byte-identical for the same archive state.
//
//   GET /v1/archive                 — entry listing; repeated ?where=
//                                     clauses keep entries with at least
//                                     one matching cell.
//   GET /v1/archive/columns         — the queryable column table.
//   GET /v1/archive/query           — filter/project or group/aggregate
//                                     cells; ?format=json|csv.
//   GET /v1/archive/diff?a=…&b=…    — align two entries cell-by-cell.

import (
	"errors"
	"net/http"
	"time"

	"detlb/internal/archive"
)

// handleArchiveList lists complete archive entries. Without filters it
// reads the store's listing cache directly (the historical endpoint,
// byte-identical to before the analytics layer existed); with ?where=
// clauses it consults the index and keeps entries with at least one
// matching cell.
func (s *Server) handleArchiveList(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		writeError(w, http.StatusNotFound, "archiving is disabled (no archive dir configured)")
		return
	}
	where := r.URL.Query()["where"]
	if len(where) == 0 {
		entries, err := s.archive.List()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if entries == nil {
			entries = []archive.Entry{}
		}
		writeJSON(w, http.StatusOK, entries)
		return
	}
	q, err := archive.ParseQuerySpec(archive.QuerySpec{Where: where})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entries, err := s.index.Entries(q.Where)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, entries)
}

// handleArchiveColumns serves the queryable column table, so clients can
// discover the grammar without shipping the registry.
func (s *Server) handleArchiveColumns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, archive.ColumnTable())
}

// handleArchiveQuery evaluates the shared query grammar over the index:
// repeated ?where= clauses, ?select= / ?group= / ?agg= lists, ?format=
// json (default) or csv.
func (s *Server) handleArchiveQuery(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		writeError(w, http.StatusNotFound, "archiving is disabled (no archive dir configured)")
		return
	}
	//detcheck:allow wallclock query latency telemetry for the /metrics histogram; never enters a result document
	start := time.Now()
	params := r.URL.Query()
	format := params.Get("format")
	if format != "" && format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, "unknown format (want json or csv)")
		return
	}
	q, err := archive.ParseQuerySpec(archive.QuerySpec{
		Where:  params["where"],
		Select: params["select"],
		Group:  params["group"],
		Aggs:   params["agg"],
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := s.index.Query(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.archiveQueries.Inc()
	s.metrics.indexRows.Set(int64(s.index.Rows()))
	//detcheck:allow wallclock query latency telemetry for the /metrics histogram; never enters a result document
	s.metrics.querySeconds.Observe(time.Since(start).Seconds())
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	res.Encode(w, format)
}

// handleArchiveDiff aligns two archived entries cell-by-cell.
func (s *Server) handleArchiveDiff(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		writeError(w, http.StatusNotFound, "archiving is disabled (no archive dir configured)")
		return
	}
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		writeError(w, http.StatusBadRequest, "diff needs ?a=<digest>&b=<digest>")
		return
	}
	rep, err := s.index.Diff(a, b)
	if errors.Is(err, archive.ErrNotFound) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.archiveDiffs.Inc()
	w.Header().Set("Content-Type", "application/json")
	archive.EncodeJSON(w, rep)
}
