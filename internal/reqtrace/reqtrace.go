// Package reqtrace is the request-scoped half of the tracing story: where
// internal/trace records the SIMD-level descent of one index operation,
// reqtrace records the *request* that caused it — a span with a 128-bit
// trace ID that survives process boundaries via the W3C `traceparent`
// header, so one ID follows a request from segload through segclient into
// segserve and down to the exact descent that burned the latency budget.
//
// The design mirrors internal/trace deliberately:
//
//   - Spans are threaded explicitly (context.Context carriage), never
//     through a global sink, so concurrent requests cannot interleave.
//   - Every recording method is nil-safe: the unsampled path holds a nil
//     *Span and pays a nil check, no allocation.
//   - A Tracer samples 1-in-N root spans through the same counter
//     (trace.Sampler) and retains finished spans in the same lock-free
//     bounded ring (trace.Ring[Span]) the descent traces use, drained
//     into flight-recorder bundles and served at /debug/requests.
//
// The package is stdlib-only. It does not implement the full OpenTelemetry
// model — no remote export, no links, single-parent spans — just enough to
// correlate HTTP latency with descent evidence across this repo's tiers.
package reqtrace

import (
	"errors"
	"fmt"
)

// TraceID is the 128-bit request identity that crosses process
// boundaries. The zero value is invalid (W3C forbids the all-zero ID).
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex characters, the exact form
// the traceparent header carries.
func (id TraceID) String() string {
	return fmt.Sprintf("%016x%016x", id.Hi, id.Lo)
}

// MarshalText renders the hex form into JSON-encoded spans.
func (id TraceID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText parses the 32-hex-character form.
func (id *TraceID) UnmarshalText(b []byte) error {
	parsed, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// ParseTraceID parses a 32-character lowercase-hex trace ID — the
// ?trace= query form of /debug/requests.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("reqtrace: trace ID must be 32 hex characters, got %d", len(s))
	}
	hi, ok1 := parseHex64(s[:16])
	lo, ok2 := parseHex64(s[16:])
	if !ok1 || !ok2 {
		return TraceID{}, errors.New("reqtrace: trace ID is not lowercase hex")
	}
	id := TraceID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return TraceID{}, errors.New("reqtrace: all-zero trace ID is invalid")
	}
	return id, nil
}

// SpanID is the 64-bit identity of one span within a trace. The zero
// value is invalid.
type SpanID uint64

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == 0 }

// String renders the ID as 16 lowercase hex characters.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalText renders the hex form into JSON-encoded spans.
func (id SpanID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText parses the 16-hex-character form.
func (id *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("reqtrace: span ID must be 16 hex characters, got %d", len(b))
	}
	v, ok := parseHex64(string(b))
	if !ok {
		return errors.New("reqtrace: span ID is not lowercase hex")
	}
	*id = SpanID(v)
	return nil
}

// parseHex64 parses exactly 16 lowercase hex digits. strconv.ParseUint
// would accept uppercase and shorter strings; the W3C header grammar
// does not.
func parseHex64(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
