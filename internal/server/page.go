package server

import (
	"cmp"
	"net/http"
	"strconv"

	"hyper/internal/httpapi"
)

// pageParams is the wire pagination contract shared by the list endpoints
// (GET /v1/sessions, /v1/jobs, /v1/usage): ?limit= caps the page size,
// ?after= resumes after an opaque cursor, and each paginated response
// reports the next cursor when more rows remain. Cursors are positions in a
// stable sort order (session name, numeric job id, usage composite key), so
// concurrent mutation can never repeat or skip a surviving row.
type pageParams struct {
	limit int    // 0 = unlimited
	after string // "" = from the start
}

func (p pageParams) active() bool { return p.limit > 0 || p.after != "" }

// parsePage extracts ?limit= and ?after=. A malformed limit is a 400 with
// code bad_request; cursor validation is endpoint-specific (the cursor
// grammar differs per sort key) and errors with code bad_cursor.
func parsePage(r *http.Request) (pageParams, error) {
	q := r.URL.Query()
	var p pageParams
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, httpapi.Errorf(http.StatusBadRequest, "limit must be a non-negative integer, got %q", v)
		}
		p.limit = n
	}
	p.after = q.Get("after")
	return p, nil
}

// errBadCursor is the shared malformed-cursor error shape.
func errBadCursor(format string, args ...any) error {
	return httpapi.CodeErrorf(http.StatusBadRequest, "bad_cursor", format, args...)
}

// paginate slices items (already sorted ascending by key) to the page after
// the cursor, whose key is after (read only when p carries a cursor),
// returning the page and the key of its last item when more remain (the
// zero key when the listing is exhausted).
func paginate[T any, K cmp.Ordered](items []T, key func(T) K, after K, p pageParams) ([]T, K) {
	start := 0
	if p.after != "" {
		for start < len(items) && key(items[start]) <= after {
			start++
		}
	}
	items = items[start:]
	if p.limit > 0 && len(items) > p.limit {
		return items[:p.limit], key(items[p.limit-1])
	}
	var none K
	return items, none
}
