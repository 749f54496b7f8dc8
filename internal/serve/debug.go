package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"vcselnoc/internal/obs"
)

func errBadLimit(v string) error {
	return fmt.Errorf("serve: bad limit %q (want a non-negative integer)", v)
}

func errBadSlow(v string) error {
	return fmt.Errorf("serve: bad slow filter %q (want a duration like 250ms)", v)
}

// DebugRequests is the GET /debug/requests body: the most recent
// finished request traces, newest first.
type DebugRequests struct {
	// Requests are the retained traces after the limit/slow filters.
	Requests []obs.TraceRecord `json:"requests"`
}

// defaultDebugLimit bounds an unqualified /debug/requests answer.
const defaultDebugLimit = 64

// handleDebugRequests serves the recent-trace ring. Query parameters:
// ?limit=N caps the answer (default 64, "0" means the whole ring) and
// ?slow=DUR (a Go duration like 250ms, or a plain number of
// milliseconds) keeps only traces at least that long.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	limit := defaultDebugLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, badRequest(errBadLimit(v)))
			return
		}
		limit = n
	}
	var slowUS int64
	if v := r.URL.Query().Get("slow"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			// Bare numbers are read as milliseconds.
			ms, merr := strconv.ParseFloat(v, 64)
			if merr != nil || ms < 0 {
				writeErr(w, badRequest(errBadSlow(v)))
				return
			}
			d = time.Duration(ms * float64(time.Millisecond))
		}
		if d < 0 {
			writeErr(w, badRequest(errBadSlow(v)))
			return
		}
		slowUS = d.Microseconds()
	}
	writeJSON(w, DebugRequests{Requests: s.recorder.Recent(limit, slowUS)})
}
