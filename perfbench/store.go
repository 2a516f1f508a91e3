package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/driver"
	"repro/internal/index"
	"repro/internal/segclient"
)

// store is the surface a workload drives: the driver's Target
// operations, with scans returning the visited keys so that their order
// and range can be checked. Values are uint64 in process and their
// decimal form on the wire.
type store interface {
	Get(ctx context.Context, k uint64) (uint64, bool, error)
	Put(ctx context.Context, k, v uint64) error
	GetBatch(ctx context.Context, ks []uint64) ([]uint64, []bool, error)
	// Scan appends to buf the keys of at most limit items with
	// lo ≤ key ≤ hi, in the order the backend returned them.
	Scan(ctx context.Context, lo, hi uint64, limit int, buf []uint64) ([]uint64, error)
}

// inproc drives an in-process index through driver.IndexTarget; scans
// go to the index itself, whose callback sees the keys.
type inproc struct {
	t  *driver.IndexTarget[uint64, uint64]
	ix index.Index[uint64, uint64]
}

func newInproc(ix index.Index[uint64, uint64]) *inproc {
	return &inproc{t: driver.NewIndexTarget(ix), ix: ix}
}

func (s *inproc) Get(ctx context.Context, k uint64) (uint64, bool, error) { return s.t.Get(ctx, k) }

func (s *inproc) Put(ctx context.Context, k, v uint64) error { return s.t.Put(ctx, k, v) }

func (s *inproc) GetBatch(ctx context.Context, ks []uint64) ([]uint64, []bool, error) {
	return s.t.GetBatch(ctx, ks)
}

func (s *inproc) Scan(_ context.Context, lo, hi uint64, limit int, buf []uint64) ([]uint64, error) {
	n := 0
	s.ix.Scan(lo, hi, func(k, _ uint64) bool {
		buf = append(buf, k)
		n++
		return n < limit
	})
	return buf, nil
}

// remote drives segserve through driver.SegserveTarget and segclient.
// segclient's Scan returns only a count, so the transport keeps a copy
// of the scan response body for the key check. One remote serves one
// worker goroutine.
type remote struct {
	t    *driver.SegserveTarget
	tap  *tapTransport
	vals []uint64
}

func newRemote(base string) *remote {
	tap := &tapTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
	c := segclient.New(base, segclient.WithHTTPClient(&http.Client{Transport: tap}))
	return &remote{t: driver.NewSegserveTarget(c), tap: tap}
}

func (s *remote) close() { s.tap.base.CloseIdleConnections() }

func (s *remote) Get(ctx context.Context, k uint64) (uint64, bool, error) {
	v, ok, err := s.t.Get(ctx, k)
	if err != nil || !ok {
		return 0, ok, err
	}
	u, err := strconv.ParseUint(v, 10, 64)
	return u, true, err
}

func (s *remote) Put(ctx context.Context, k, v uint64) error {
	return s.t.Put(ctx, k, strconv.FormatUint(v, 10))
}

func (s *remote) GetBatch(ctx context.Context, ks []uint64) ([]uint64, []bool, error) {
	vs, found, err := s.t.GetBatch(ctx, ks)
	if err != nil {
		return nil, nil, err
	}
	s.vals = s.vals[:0]
	for i, v := range vs {
		var u uint64
		if found[i] {
			if u, err = strconv.ParseUint(v, 10, 64); err != nil {
				return nil, nil, err
			}
		}
		s.vals = append(s.vals, u)
	}
	return s.vals, found, nil
}

func (s *remote) Scan(ctx context.Context, lo, hi uint64, limit int, buf []uint64) ([]uint64, error) {
	s.tap.body.Reset()
	s.tap.on = true
	n, err := s.t.Scan(ctx, lo, hi, limit)
	s.tap.on = false
	if err != nil {
		return buf, err
	}
	body := strings.TrimSuffix(s.tap.body.String(), "\n")
	if body == "" {
		return buf, nil
	}
	for _, line := range strings.Split(body, "\n") {
		ks, _, _ := strings.Cut(line, " ")
		k, err := strconv.ParseUint(ks, 10, 64)
		if err != nil {
			return buf, fmt.Errorf("scan line %q: %w", line, err)
		}
		buf = append(buf, k)
	}
	if n != len(buf) {
		return buf, fmt.Errorf("segclient counted %d scan items, body holds %d", n, len(buf))
	}
	return buf, nil
}

// tapTransport copies response bodies into body while on is set.
type tapTransport struct {
	base *http.Transport
	on   bool
	body bytes.Buffer
}

func (t *tapTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil && t.on {
		resp.Body = tapBody{resp.Body, io.TeeReader(resp.Body, &t.body)}
	}
	return resp, err
}

type tapBody struct {
	io.Closer
	io.Reader
}
