package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/segclient"
	"repro/internal/shape"
)

// server is one segserve child process on a loopback port. Its output
// (the request log, one line per request at segserve's default info
// level) is piped into the benchmark, counted and dropped rather than
// written to disk: a served run logs some 25 MB.
type server struct {
	base    string
	cmd     *exec.Cmd
	log     *logSink
	copied  chan struct{}
	exited  chan struct{}
	waitErr error
	once    sync.Once
	hc      *http.Client
}

// logSink counts the bytes written to it and keeps the last few KiB for
// error reports.
type logSink struct {
	mu   sync.Mutex
	n    int64
	tail []byte
}

const logTail = 4 << 10

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n += int64(len(p))
	l.tail = append(l.tail, p...)
	if len(l.tail) > 2*logTail {
		l.tail = append(l.tail[:0], l.tail[len(l.tail)-logTail:]...)
	}
	return len(p), nil
}

func (l *logSink) bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *logSink) lastLines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tail
	if len(t) > logTail {
		t = t[len(t)-logTail:]
	}
	return string(t)
}

// startServer starts bin on a free loopback port with extra flags and
// waits until /readyz answers. The caller must stop the server on every
// path.
func startServer(ctx context.Context, bin string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	out, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = cmd.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start segserve: %w", err)
	}
	s := &server{
		base: "http://" + addr, cmd: cmd, log: &logSink{},
		copied: make(chan struct{}),
		exited: make(chan struct{}),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	go func() {
		io.Copy(s.log, out)
		close(s.copied)
	}()
	go func() {
		<-s.copied // Wait closes the pipe, so it must follow the copy
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := segclient.New(s.base).WaitReady(ctx, 20*time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("segserve on %s: %w; its log ends:\n%s", addr, err, s.log.lastLines())
	}
	return s, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// died returns an error naming how the process ended, or nil while it
// runs.
func (s *server) died() error {
	if s.alive() {
		return nil
	}
	return fmt.Errorf("segserve exited during the run: %v; its log ends:\n%s", s.waitErr, s.log.lastLines())
}

// stop kills the process and waits for it. It is safe to call more
// than once.
func (s *server) stop() {
	s.once.Do(func() {
		if s.alive() {
			s.cmd.Process.Kill()
		}
		<-s.exited
		s.hc.CloseIdleConnections()
	})
}

// logBytes returns the bytes the server has logged so far.
func (s *server) logBytes() int64 { return s.log.bytes() }

// fetch GETs path and returns the body, failing on a non-2xx status.
func (s *server) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (s *server) fetchJSON(ctx context.Context, path string, v any) error {
	body, err := s.fetch(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// stats returns /stats as name → value.
func (s *server) stats(ctx context.Context) (map[string]float64, error) {
	return segclient.New(s.base, segclient.WithHTTPClient(s.hc)).Stats(ctx)
}

// metrics returns the unlabelled samples of /metrics as name → value.
func (s *server) metrics(ctx context.Context) (map[string]float64, error) {
	body, err := s.fetch(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// liveHeap forces a collection in the server (the heap profile's gc=1)
// and returns its heap object bytes afterwards.
func (s *server) liveHeap(ctx context.Context) (float64, error) {
	if _, err := s.fetch(ctx, "/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	m, err := s.metrics(ctx)
	if err != nil {
		return 0, err
	}
	return m["segserve_go_heap_objects_bytes"], nil
}

func (s *server) mvcc(ctx context.Context) (obs.MVCCSnapshot, error) {
	var mv obs.MVCCSnapshot
	err := s.fetchJSON(ctx, "/debug/snapshot", &mv)
	return mv, err
}

func (s *server) shape(ctx context.Context) (shape.Report, error) {
	var rep shape.Report
	err := s.fetchJSON(ctx, "/debug/shape?format=json", &rep)
	return rep, err
}
