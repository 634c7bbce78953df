// Package httpapi is the one HTTP surface of hyperd, its shard workers and
// the shard coordinator. Every listener answers errors in one JSON envelope,
// caps every request body it reads, decodes JSON bodies one strict way and
// serves handlers of one shape, func(*http.Request) (any, error); the
// coordinator reads a worker's envelope back through ReadError. It depends on
// the standard library only.
package httpapi

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// ErrorResponse is the one JSON error envelope every route of every listener
// answers: a human-readable message, a machine-readable code, and a
// retryable hint so clients can back off without parsing message text.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	Retryable bool   `json:"retryable,omitempty"`
}

// Error carries an HTTP status, and optionally a machine-readable code, from
// a handler to the envelope.
type Error struct {
	Status int
	Code   string // e.g. "queue_full"; "" takes the status's default code
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf is an error answered with status and the status's default code.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// CodeErrorf is Errorf with an explicit machine-readable code.
func CodeErrorf(status int, code, format string, args ...any) error {
	return &Error{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps a handler error to its status and code: an *Error's own; a
// cancelled request context is 499 (the client closed the request, not a
// server fault); an expired deadline is 504; anything else is 500.
func StatusOf(err error) (status int, code string) {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e.Status, e.Code
	case errors.Is(err, context.Canceled):
		return 499, ""
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

// statusCodes supplies the envelope code when a handler didn't set one;
// any other status is "internal".
var statusCodes = map[int]string{
	http.StatusBadRequest:            "bad_request",
	http.StatusUnauthorized:          "unauthorized",
	http.StatusNotFound:              "not_found",
	http.StatusMethodNotAllowed:      "method_not_allowed",
	http.StatusConflict:              "conflict",
	http.StatusRequestEntityTooLarge: "body_too_large",
	http.StatusTooManyRequests:       "rate_limited",
	499:                              "cancelled",
	http.StatusServiceUnavailable:    "unavailable",
	http.StatusGatewayTimeout:        "timeout",
}

// retryableStatus marks the statuses a client may retry verbatim: queue and
// admission pressure (429), draining (503), and deadline expiry (504).
// Client errors and true faults are not retryable.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// writeError renders the envelope. code == "" falls back to the status's
// default code.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	if code == "" {
		code = cmp.Or(statusCodes[status], "internal")
	}
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code, Retryable: retryableStatus(status)})
}

// WriteJSON encodes payload whole before the status goes out, so a payload
// that cannot be encoded (a NaN answer) is a 500 envelope, not a 200 with an
// empty body.
func WriteJSON(w http.ResponseWriter, status int, payload any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(payload); err != nil {
		writeError(w, http.StatusInternalServerError, "", fmt.Sprintf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write is the client's lost connection
}

// Blob is a success payload written verbatim under its content type — the
// one body that is not JSON (a worker's binary eval reply).
type Blob struct {
	ContentType string
	Body        []byte
}

// Respond writes a handler's outcome: an error as the envelope of its
// StatusOf, a Blob verbatim, any other payload as JSON with status 200.
func Respond(w http.ResponseWriter, payload any, err error) {
	if err != nil {
		status, code := StatusOf(err)
		writeError(w, status, code, err.Error())
		return
	}
	if b, ok := payload.(Blob); ok {
		w.Header().Set("Content-Type", b.ContentType)
		// A reader can size its buffer once, and bound it (dist's readReply).
		w.Header().Set("Content-Length", strconv.Itoa(len(b.Body)))
		_, _ = w.Write(b.Body) // a failed write is the client's lost connection
		return
	}
	WriteJSON(w, http.StatusOK, payload)
}

// Func is the one handler shape: it reads the request and returns a payload
// or an error, and never touches the ResponseWriter.
type Func func(r *http.Request) (any, error)

// ServeHTTP adapts f to an http.Handler through Respond.
func (f Func) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	payload, err := f(r)
	Respond(w, payload, err)
}

// Decode strictly decodes the request body into dst: unknown fields are
// rejected. A body past the listener's cap (Serve) is a 413
// body_too_large; any other failure is a 400.
func Decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return bodyError("decoding request body", err)
	}
	return nil
}

// ReadBody reads the whole request body (a frame upload), with Decode's
// statuses: 413 past the listener's cap, 400 for any other read failure.
func ReadBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, bodyError("reading request body", err)
	}
	return body, nil
}

func bodyError(what string, err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	}
	return Errorf(http.StatusBadRequest, "%s: %v", what, err)
}

// Serve wraps a listener's routes: every request body they read is capped at
// limit bytes (Decode and ReadBody answer 413 past it), and the two error
// pages net/http writes itself — the plain-text 404 for unrouted paths and
// 405 for known paths with the wrong method — come out in the envelope.
// Handlers always set an application/json Content-Type before writing an
// error, so interception triggers only on the mux's own text/plain pages.
func Serve(limit int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
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

// ReadError reads a peer's error reply: the status, the envelope's code, and
// a message naming the status and the envelope's error ("status 404: ..."; a
// body that is not the envelope leaves the code empty and the message the
// bare status).
func ReadError(status int, body []byte) *Error {
	var env ErrorResponse
	_ = json.Unmarshal(body, &env)
	msg := fmt.Sprintf("status %d", status)
	if env.Error != "" {
		msg += ": " + env.Error
	}
	return &Error{Status: status, Code: env.Code, Msg: msg}
}
