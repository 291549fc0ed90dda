package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Pass names of the traced run. Pass A sends HTTP through a tracing
// client transport and handler wrapper; pass B calls the session store
// directly; pass C calls core.AskTell under a bench-owned lock. The
// library-only paper workload is replayed through pass C alone.
const (
	passA = "A"
	passB = "B"
	passC = "C"
)

// traceHeader carries the client span id to the handler wrapper, which
// parents its span on it.
const traceHeader = "X-Bench-Trace"

// span is one timed call at a layer boundary. Spans of one request
// share Trace, which is the id of the request's root span.
type span struct {
	Name     string `json:"name"`
	Trace    uint64 `json:"trace"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Pass     string `json:"pass"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanLog holds the spans of a run in memory until they are written
// out at exit. All methods are no-ops on a nil log, so untraced code
// paths call them unconditionally.
type spanLog struct {
	origin   time.Time
	workload string
	ids      atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{origin: time.Now(), workload: workload}
}

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) record(pass, name string, trace, id, parent uint64, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{
		Name: name, Trace: trace, ID: id, Parent: parent,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds(),
		Workload: l.workload, Pass: pass,
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// child records a span from start until now as a child of the root
// span trace.
func (l *spanLog) child(pass, name string, trace uint64, start time.Time) {
	l.record(pass, name, trace, l.newID(), trace, start, time.Now())
}

// root records the root span trace from start until now.
func (l *spanLog) root(pass, name string, trace uint64, start time.Time) {
	l.record(pass, name, trace, trace, 0, start, time.Now())
}

// all returns a copy of the recorded spans.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeSpans appends the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// route names a daemon request by what it does.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/sessions":
		return "create"
	case method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(path, "/suggest"):
		return "suggest"
	case strings.HasSuffix(path, "/observe"):
		return "observe"
	default:
		return "other"
	}
}

// traceTransport is the client side of pass A: it stamps each request
// with a fresh trace id and records a client.<route> span from the
// start of the round trip until the response body is closed, so the
// span covers the whole exchange including response decoding.
type traceTransport struct {
	base http.RoundTripper
	tr   *spanLog
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	name := "client." + route(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.record(passA, name, id, id, 0, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.tr.record(passA, name, id, id, 0, start, time.Now())
	}}
	return resp, nil
}

// spanBody closes the client span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// traceHandler is the server side of pass A: it records a
// server.<route> span around the daemon's handler, parented on the
// client span named by the trace header. A reply outside 2xx gets the
// name suffix .non2xx, which server.non2xx counts.
func traceHandler(h http.Handler, tr *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		name := "server." + route(r.Method, r.URL.Path)
		if sw.status < 200 || sw.status > 299 {
			name += ".non2xx"
		}
		tr.record(passA, name, trace, tr.newID(), trace, start, time.Now())
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// spanIndex answers the per-layer questions asked of a run's spans.
type spanIndex struct {
	spans    []span
	children map[uint64][]int // parent span id -> child indices
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[uint64][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// durations returns the durations (ms) of the spans of a pass whose
// name is one of names.
func (ix *spanIndex) durations(pass string, names ...string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Pass == pass && slices.Contains(names, s.Name) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (ix *spanIndex) count(pass string, names ...string) int {
	n := 0
	for _, s := range ix.spans {
		if s.Pass == pass && slices.Contains(names, s.Name) {
			n++
		}
	}
	return n
}

func (ix *spanIndex) suffixed(pass, suffix string) int {
	n := 0
	for _, s := range ix.spans {
		if s.Pass == pass && strings.HasSuffix(s.Name, suffix) {
			n++
		}
	}
	return n
}

// self returns the self times (ms) of the named spans of a pass: each
// span's duration minus the part its children cover.
func (ix *spanIndex) self(pass, name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Pass != pass || s.Name != name {
			continue
		}
		d := s.dur()
		for _, c := range ix.children[s.ID] {
			d -= ix.spans[c].dur()
		}
		out = append(out, ms(d))
	}
	return out
}

// overhead pairs each client span of a route with the handler span
// parented on it and returns client minus handler time (ms).
func (ix *spanIndex) overhead(route string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Pass != passA || s.Name != "client."+route {
			continue
		}
		for _, c := range ix.children[s.ID] {
			if child := ix.spans[c]; strings.HasPrefix(child.Name, "server.") {
				out = append(out, ms(s.dur()-child.dur()))
			}
		}
	}
	return out
}

// checkNesting verifies that every span with a parent lies inside it
// and shares its trace id. Span ids are unique within a workload.
func checkNesting(spans []span) error {
	type key struct {
		workload string
		id       uint64
	}
	byID := make(map[key]span, len(spans))
	for _, s := range spans {
		byID[key{s.Workload, s.ID}] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("%s span %d (%s) ends before it starts", s.Workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Trace != s.ID {
				return fmt.Errorf("%s root span %d (%s) has trace id %d", s.Workload, s.ID, s.Name, s.Trace)
			}
			continue
		}
		p, ok := byID[key{s.Workload, s.Parent}]
		switch {
		case !ok:
			return fmt.Errorf("%s span %d (%s) has unknown parent %d", s.Workload, s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("%s span %d (%s) has trace %d, parent %s has %d", s.Workload, s.ID, s.Name, s.Trace, p.Name, p.Trace)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			return fmt.Errorf("%s span %d (%s) [%d,%d] is not inside parent %s [%d,%d]",
				s.Workload, s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
