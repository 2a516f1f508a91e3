package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzHandlerQuery sends arbitrary raw query strings to the data
// endpoints through the whole request stack (spans, request logging,
// the mux): no input may panic, and every answer carries a status the
// handlers define — 200, 400 for a bad parameter, 404 for a missing
// key, 413 for an oversized batch, 503 when not ready.
func FuzzHandlerQuery(f *testing.F) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 4, preload: 100, spanRate: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := s.handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	for _, seed := range []string{
		"key=5", "key=5&value=x", "key=", "key=-1", "key=18446744073709551616", "key=1&key=2",
		"keys=1,2,3", "keys=1,,3", "keys= 7 , 8", "keys=" + strings.Repeat(",", 1024),
		"lo=1&hi=50&limit=3", "lo=50&hi=1", "lo=0&hi=18446744073709551615&limit=0",
		"limit=-1&lo=1&hi=2", "%zz", "key=%00", ";key=1", "value=" + strings.Repeat("v", 300), "",
	} {
		f.Add(seed)
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/get", "/put", "/getbatch", "/scan"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if !allowed[rec.Code] {
				t.Fatalf("%s?%q: status %d", path, query, rec.Code)
			}
		}
	})
}
