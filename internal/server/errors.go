package server

import (
	"net/http"
)

// ErrorResponse is the single JSON error envelope every /v1 endpoint emits:
// a human-readable message, a machine-readable code, and a retryable hint so
// clients can back off without parsing message text. No handler writes error
// JSON by hand — instrument funnels every failure (including recovered
// panics and the mux's own 404/405s) through writeError.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	Retryable bool   `json:"retryable,omitempty"`
}

// codeForStatus supplies the envelope code when a handler didn't set one
// explicitly (errcf's code always wins).
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case 499:
		return "cancelled"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// retryableStatus marks the statuses a client may retry verbatim: queue and
// admission pressure (429), draining (503), and deadline expiry (504).
// Client errors and true faults are not retryable.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// writeError renders the error envelope. code == "" falls back to the
// status's default code.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	if code == "" {
		code = codeForStatus(status)
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, Retryable: retryableStatus(status)})
}

// envelopeErrors wraps the routed mux so the two error responses net/http
// writes itself — the plain-text 404 for unrouted paths and 405 for known
// paths with the wrong method — come out in the same JSON envelope as every
// handler error. Handlers always set an application/json Content-Type before
// writing, so interception triggers only on the mux's own text/plain pages.
func envelopeErrors(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	intercepted bool // swallowing the mux's plain-text error body
	wroteHeader bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.intercepted = true
		// Drop the text/plain headers ServeMux set; writeError re-sets them.
		w.Header().Del("Content-Type")
		w.Header().Del("X-Content-Type-Options")
		msg := "not found"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		writeError(w.ResponseWriter, status, "", msg)
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		// The envelope already went out; swallow the mux's text body.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}
