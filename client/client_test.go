package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot"
	"github.com/hpcautotune/hiperbot/internal/cluster"
	"github.com/hpcautotune/hiperbot/internal/server"
)

func newDaemon(t *testing.T) (*httptest.Server, *server.Store) {
	t.Helper()
	store, err := server.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(store, nil))
	t.Cleanup(func() { ts.Close(); store.Close() })
	return ts, store
}

func testSpace() *hiperbot.Space {
	return hiperbot.NewSpace(
		hiperbot.DiscreteInts("x", 0, 1, 2, 3),
		hiperbot.DiscreteInts("y", 0, 1, 2, 3),
	)
}

func TestClientEndToEndTune(t *testing.T) {
	ts, _ := newDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sp := testSpace()
	id, err := cl.CreateSessionFromSpace(ctx, "e2e", sp, SessionOptions{Seed: 1, InitialSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if id != "e2e" {
		t.Fatalf("id = %q", id)
	}

	evals := 0
	info, err := cl.Tune(ctx, id, func(cfg map[string]string) (float64, error) {
		c, err := sp.FromLabels(cfg)
		if err != nil {
			return 0, err
		}
		evals++
		return (c[0] - 2) * (c[0] - 2) * ((c[1] - 1) * (c[1] - 1)), nil
	}, 12, 3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if info.Evaluations != 12 || evals != 12 {
		t.Fatalf("evaluations = %d (objective ran %d times), want 12", info.Evaluations, evals)
	}
	if info.Best == nil || info.Best.Value != 0 {
		t.Fatalf("best = %+v, want 0", info.Best)
	}

	sessions, err := cl.Sessions(ctx)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("sessions = %v, %v", sessions, err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["suggest"].Requests == 0 || m.Endpoints["observe"].Requests == 0 {
		t.Fatalf("metrics = %+v", m.Endpoints)
	}
	if err := cl.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(ctx, id); !IsNotFound(err) {
		t.Fatalf("status after delete: %v, want 404", err)
	}
}

// TestClientTuneMetricsParetoFront drives a two-objective session
// through TuneMetrics and reads the Pareto front off the final status.
func TestClientTuneMetricsParetoFront(t *testing.T) {
	ts, _ := newDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp := testSpace()
	id, err := cl.CreateSessionFromSpace(ctx, "mo", sp, SessionOptions{
		Seed:           1,
		InitialSamples: 4,
		Objectives:     []string{"p95_latency_ms", "cost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.TuneMetrics(ctx, id, func(cfg map[string]string) (float64, map[string]float64, error) {
		c, err := sp.FromLabels(cfg)
		if err != nil {
			return 0, nil, err
		}
		return 0, map[string]float64{
			"p95_latency_ms": c[0] + c[1],         // wants small x+y
			"cost":           (3 - c[0]) + c[1]*2, // wants large x, small y
		}, nil
	}, 12, 3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "motpe" {
		t.Fatalf("strategy = %q, want motpe", info.Strategy)
	}
	if len(info.ParetoFront) == 0 {
		t.Fatalf("no pareto front in final status: %+v", info)
	}
	for _, r := range info.ParetoFront {
		if len(r.Metrics) != 2 {
			t.Fatalf("front member missing metrics: %+v", r)
		}
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientTuneRequestCount: Tune reads the evaluation count from each
// observe response, so it asks for status once before the loop and
// once for the info it returns, not once per batch.
func TestClientTuneRequestCount(t *testing.T) {
	ts, _ := newDaemon(t)
	var mu sync.Mutex
	counts := map[string]int{}
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		counts[r.Method+" "+path.Base(r.URL.Path)]++
		mu.Unlock()
		return http.DefaultTransport.RoundTrip(r)
	})}
	cl, err := New(ts.URL, WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := cl.CreateSessionFromSpace(ctx, "counted", testSpace(), SessionOptions{Seed: 1, InitialSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Tune(ctx, id, func(map[string]string) (float64, error) { return 1, nil }, 12, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if info.Evaluations != 12 {
		t.Fatalf("evaluations = %d, want 12", info.Evaluations)
	}
	want := map[string]int{"POST sessions": 1, "GET counted": 2, "POST suggest": 3, "POST observe": 3}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("requests = %v, want %v", counts, want)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "temporarily overloaded", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "sessions": 0})
	}))
	defer ts.Close()

	cl, err := New(ts.URL, WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatalf("Health after transient 503s: %v", err)
	}
	if h.Status != "ok" || calls.Load() != 3 {
		t.Fatalf("status=%q calls=%d, want ok after 3 calls", h.Status, calls.Load())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such session"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	cl, err := New(ts.URL, WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Status(context.Background(), "ghost")
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was retried %d times", calls.Load())
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cl, err := New(ts.URL, WithRetries(100), WithBackoff(50*time.Millisecond, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.Health(ctx); err == nil {
		t.Fatal("Health succeeded against a dead server")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("retry loop ignored context cancellation (%v)", time.Since(start))
	}
}

func TestClientCancellationIsNotTransient(t *testing.T) {
	// A request aborted by the caller's context must surface
	// immediately: retrying a cancellation would strand the caller in
	// the backoff schedule they were trying to escape.
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-release
	}))
	defer func() { close(release); ts.Close() }()

	cl, err := New(ts.URL, WithRetries(100), WithBackoff(time.Second, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cl.Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v — the retry loop treated it as transient", elapsed)
	}
	if calls.Load() != 1 {
		t.Fatalf("canceled request was retried %d times", calls.Load())
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("client: %w", context.Canceled), false},
		{&APIError{Status: http.StatusNotFound}, false},
		{&APIError{Status: http.StatusTooManyRequests}, true},
		{&APIError{Status: http.StatusInternalServerError}, true},
		{errors.New("connection refused"), true},
	}
	for _, tc := range cases {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestClientRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "localhost:8080"} {
		if _, err := New(bad); err == nil {
			t.Fatalf("New(%q) succeeded", bad)
		}
	}
}

// 429/503 with Retry-After must wait the server-directed delay, not
// the client's own (here: near-zero) backoff schedule.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","sessions":0}`)
	}))
	defer ts.Close()
	cl, err := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited only %v; Retry-After: 1 should hold it ~1s", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

// Without Retry-After the configured backoff still applies — the
// header path must not slow down ordinary retries.
func TestClientRetryWithoutRetryAfterStaysFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","sessions":0}`)
	}))
	defer ts.Close()
	cl, err := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retry took %v; without Retry-After it should use the ~1ms backoff", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("parseRetryAfter(7) = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("parseRetryAfter(empty) = %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Fatalf("parseRetryAfter(-3) = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Fatalf("parseRetryAfter(garbage) = %v", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 20*time.Second || d > 31*time.Second {
		t.Fatalf("parseRetryAfter(date +30s) = %v", d)
	}
}

// A client pointed at any node of a cluster reaches every session
// unchanged: the node forwards requests for sessions it does not own.
// Tuning through a non-owner must select exactly what a single-node
// daemon selects for the same session name and seed.
func TestClientTuneThroughNonOwnerMatchesSingleNode(t *testing.T) {
	const (
		name   = "routed"
		budget = 14
	)
	opts := SessionOptions{Seed: 3, InitialSamples: 4}
	sp := testSpace()
	tune := func(base string) ([]string, *SessionInfo) {
		t.Helper()
		cl, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		id, err := cl.CreateSessionFromSpace(ctx, name, sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		info, err := cl.Tune(ctx, id, func(cfg map[string]string) (float64, error) {
			c, err := sp.FromLabels(cfg)
			if err != nil {
				return 0, err
			}
			seq = append(seq, sp.Describe(c))
			return (c[0]-2)*(c[0]-2) + (c[1]-1)*(c[1]-1), nil
		}, budget, 1, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return seq, info
	}

	urls := make([]string, 3)
	srvs := make([]*server.Server, 3)
	for i := range urls {
		store, err := server.OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = server.New(store, nil)
		ts := httptest.NewServer(srvs[i])
		t.Cleanup(func() { ts.Close(); store.Close() })
		urls[i] = ts.URL
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(server.ClusterConfig{Self: urls[i], Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	entry := 0
	for entry < len(urls) && ring.Owner(name) == urls[entry] {
		entry++
	}

	got, gotInfo := tune(urls[entry])
	single, _ := newDaemon(t)
	want, wantInfo := tune(single.URL)

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("suggestions through a non-owner differ from a single node\ncluster: %v\nsingle:  %v", got, want)
	}
	if gotInfo.Evaluations != budget || gotInfo.Best == nil || wantInfo.Best == nil ||
		gotInfo.Best.Value != wantInfo.Best.Value || !reflect.DeepEqual(gotInfo.Best.Config, wantInfo.Best.Config) {
		t.Fatalf("cluster best %+v (%d evals) != single-node best %+v", gotInfo.Best, gotInfo.Evaluations, wantInfo.Best)
	}
	cl, err := New(urls[entry])
	if err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cluster == nil || m.Cluster.ForwardedRequests == 0 {
		t.Fatalf("entry node forwarded nothing: %+v", m.Cluster)
	}
}
