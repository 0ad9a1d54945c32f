package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
)

// ---- live mutations ----------------------------------------------------

// InsertRequest carries rectangles to insert, in the table's original
// coordinate space (the extent it was created with).
type InsertRequest struct {
	Items [][4]float64 `json:"items"`
}

// DeleteRequest carries item IDs to delete. IDs are the ones returned by
// insert responses (and, for preloaded tables, the 0-based positions of the
// original dataset).
type DeleteRequest struct {
	IDs []int `json:"ids"`
}

// BatchRequest combines inserts and deletes into one atomic batch.
type BatchRequest struct {
	Insert [][4]float64 `json:"insert,omitempty"`
	Delete []int        `json:"delete,omitempty"`
}

// MutateResponse reports a committed batch. Generation is the store
// generation whose snapshot contains the batch — estimate-cache entries
// keyed on earlier generations are stale from this point on.
type MutateResponse struct {
	Table      string `json:"table"`
	IDs        []int  `json:"ids,omitempty"`
	Inserted   int    `json:"inserted"`
	Deleted    int    `json:"deleted"`
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
	Durable    bool   `json:"durable"`
}

// retryAfterSeconds renders a backoff for the Retry-After header: whole
// seconds, rounded up so sub-second backoffs don't advertise "0".
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func rectsFromWire(items [][4]float64) []geom.Rect {
	rects := make([]geom.Rect, len(items))
	for i, r := range items {
		rects[i] = geom.NewRect(r[0], r[1], r[2], r[3])
	}
	return rects
}

// applyMutation funnels all three mutation endpoints through the ingest
// manager. The table must exist in the serving store; its mutation front is
// opened lazily on first use.
func (s *Server) applyMutation(w http.ResponseWriter, r *http.Request, m ingest.Mutation) {
	name := r.PathValue("name")
	ev := eventFrom(r.Context())
	ev.Tables = []string{name}
	if _, err := s.store.Snapshot().Catalog.Table(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	tab, err := s.ingest.Table(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	res, err := tab.Apply(m)
	if err != nil {
		// A degraded table is a server-side condition, not a bad request: the
		// client gets 503 with the breaker's probe backoff as Retry-After,
		// while reads keep serving the last durable snapshot.
		var derr *ingest.DegradedError
		if errors.As(err, &derr) {
			w.Header().Set("Retry-After", retryAfterSeconds(derr.RetryAfter))
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ev.Rows = m.Records()
	writeJSON(w, http.StatusOK, MutateResponse{
		Table:      name,
		IDs:        res.IDs,
		Inserted:   len(m.Inserts),
		Deleted:    len(m.Deletes),
		Seq:        res.Seq,
		Generation: res.Gen,
		Durable:    tab.WALPath() != "",
	})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "items must be non-empty")
		return
	}
	s.applyMutation(w, r, ingest.Mutation{Inserts: rectsFromWire(req.Items)})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "ids must be non-empty")
		return
	}
	s.applyMutation(w, r, ingest.Mutation{Deletes: req.IDs})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		writeError(w, http.StatusBadRequest, "batch must contain inserts or deletes")
		return
	}
	s.applyMutation(w, r, ingest.Mutation{Inserts: rectsFromWire(req.Insert), Deletes: req.Delete})
}
