package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// testSpace is a 4x4 grid with a known optimum at (1,2).
func testSpace() *space.Space {
	return space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
}

func testSpaceJSON(t testing.TB) []byte {
	t.Helper()
	data, err := json.Marshal(testSpace())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testValue(c space.Config) float64 {
	return (c[0]-1)*(c[0]-1) + (c[1]-2)*(c[1]-2)
}

// doJSON posts a request against the handler and decodes the reply.
func doJSON(t testing.TB, h http.Handler, method, path string, in, out any) int {
	t.Helper()
	var body *bytes.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func newTestServer(t *testing.T, dir string) (*Server, *Store) {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, nil), store
}

func createTestSession(t testing.TB, srv *Server, name string, opts httpapi.SessionOptions) string {
	t.Helper()
	var resp httpapi.CreateSessionResponse
	code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Name: name, Space: testSpaceJSON(t), Options: opts,
	}, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	return resp.ID
}

// drive runs the ask/tell loop over HTTP until the session holds
// budget evaluations.
func drive(t testing.TB, srv *Server, id string, budget, batch int) {
	t.Helper()
	sp := testSpace()
	for {
		var info httpapi.SessionInfo
		if code := doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, &info); code != 200 {
			t.Fatalf("status: HTTP %d", code)
		}
		if info.Evaluations >= budget {
			return
		}
		want := batch
		if rem := budget - info.Evaluations; want > rem {
			want = rem
		}
		var sug httpapi.SuggestResponse
		if code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/suggest",
			httpapi.SuggestRequest{Count: want}, &sug); code != 200 {
			t.Fatalf("suggest: HTTP %d", code)
		}
		if len(sug.Candidates) == 0 {
			t.Fatalf("suggest exhausted at %d/%d evaluations", info.Evaluations, budget)
		}
		var results []httpapi.Result
		for _, cfg := range sug.Candidates {
			c, err := sp.FromLabels(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, httpapi.Result{Config: cfg, Value: testValue(c)})
		}
		var obs httpapi.ObserveResponse
		if code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe",
			httpapi.ObserveRequest{Results: results}, &obs); code != 200 {
			t.Fatalf("observe: HTTP %d", code)
		}
		if obs.Added != len(results) {
			t.Fatalf("observe added %d of %d", obs.Added, len(results))
		}
	}
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	srv, store := newTestServer(t, "")
	defer store.Close()

	id := createTestSession(t, srv, "lifecycle", httpapi.SessionOptions{Seed: 1, InitialSamples: 4})

	// Duplicate names conflict.
	code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Name: "lifecycle", Space: testSpaceJSON(t),
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate create: HTTP %d, want 409", code)
	}

	drive(t, srv, id, 12, 3)

	var info httpapi.SessionInfo
	doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, &info)
	if info.Evaluations != 12 || info.Phase != "model" {
		t.Fatalf("info = %+v", info)
	}
	if info.Best == nil || info.Best.Value != 0 {
		t.Fatalf("best = %+v, want the (1,2) optimum", info.Best)
	}
	if len(info.Importance) != 2 {
		t.Fatalf("importance = %+v, want 2 entries", info.Importance)
	}

	var list httpapi.SessionListResponse
	doJSON(t, srv, "GET", "/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id {
		t.Fatalf("list = %+v", list)
	}

	var health httpapi.HealthResponse
	doJSON(t, srv, "GET", "/healthz", nil, &health)
	if health.Status != "ok" || health.Sessions != 1 {
		t.Fatalf("health = %+v", health)
	}

	if code := doJSON(t, srv, "DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: HTTP %d, want 404", code)
	}
}

func TestObserveIdempotentAndValidated(t *testing.T) {
	srv, store := newTestServer(t, "")
	defer store.Close()
	id := createTestSession(t, srv, "", httpapi.SessionOptions{Seed: 2, InitialSamples: 2})

	var sug httpapi.SuggestResponse
	doJSON(t, srv, "POST", "/v1/sessions/"+id+"/suggest", httpapi.SuggestRequest{Count: 1}, &sug)
	if len(sug.Candidates) != 1 || sug.Phase != "initial" {
		t.Fatalf("suggest = %+v", sug)
	}
	res := []httpapi.Result{{Config: sug.Candidates[0], Value: 7}}

	var first, second httpapi.ObserveResponse
	doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe", httpapi.ObserveRequest{Results: res}, &first)
	if first.Added != 1 || first.Duplicates != 0 {
		t.Fatalf("first observe = %+v", first)
	}
	// A retried delivery is a duplicate, not an error.
	doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe", httpapi.ObserveRequest{Results: res}, &second)
	if second.Added != 0 || second.Duplicates != 1 || second.Evaluations != 1 {
		t.Fatalf("retried observe = %+v", second)
	}

	// Unknown labels and out-of-space values are 400s.
	bad := []httpapi.Result{{Config: map[string]string{"x": "17", "y": "0"}, Value: 1}}
	if code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe",
		httpapi.ObserveRequest{Results: bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid observe: HTTP %d, want 400", code)
	}
}

// TestConstraintViolationRejected covers the embedding path: spaces
// decoded from JSON lose their constraint predicate (see
// hiperbot.LoadSpace), so a store embedded with a constrained space
// must reject results the constraint forbids with a 4xx.
func TestConstraintViolationRejected(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, nil)

	constrained := testSpace().WithConstraint(func(c space.Config) bool {
		return c[0] != 3 // forbid x=3
	})
	if _, err := store.CreateWithSpace("constrained", constrained, nil, httpapi.SessionOptions{
		Seed: 1, InitialSamples: 2,
	}); err != nil {
		t.Fatal(err)
	}
	bad := []httpapi.Result{{Config: map[string]string{"x": "3", "y": "0"}, Value: 1}}
	code := doJSON(t, srv, "POST", "/v1/sessions/constrained/observe",
		httpapi.ObserveRequest{Results: bad}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("constraint-violating observe: HTTP %d, want 400", code)
	}
	ok := []httpapi.Result{{Config: map[string]string{"x": "2", "y": "0"}, Value: 1}}
	if code := doJSON(t, srv, "POST", "/v1/sessions/constrained/observe",
		httpapi.ObserveRequest{Results: ok}, nil); code != http.StatusOK {
		t.Fatalf("valid observe: HTTP %d", code)
	}
}

// TestKillRestartResumesSessions is the durability acceptance test: a
// daemon serving several active sessions is stopped mid-campaign and
// reopened; every session must resume with identical history length
// and best value, and subsequent suggests must return valid
// unevaluated candidates.
func TestKillRestartResumesSessions(t *testing.T) {
	dir := t.TempDir()
	srv, store := newTestServer(t, dir)

	type snapshot struct {
		evals int
		best  float64
		seen  map[string]bool
	}
	snapshots := make(map[string]snapshot)
	sp := testSpace()

	for i := 0; i < 3; i++ {
		id := createTestSession(t, srv, fmt.Sprintf("campaign-%d", i),
			httpapi.SessionOptions{Seed: uint64(i + 1), InitialSamples: 4})
		drive(t, srv, id, 6+2*i, 2) // stop mid-campaign, past the initial phase
		var info httpapi.SessionInfo
		doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, &info)
		sess, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, o := range sess.at.Tuner().History().Observations() {
			seen[sp.Key(o.Config)] = true
		}
		snapshots[id] = snapshot{evals: info.Evaluations, best: info.Best.Value, seen: seen}
	}

	// Kill: close every journal, drop all state.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same directory.
	srv2, store2 := newTestServer(t, dir)
	defer store2.Close()
	if store2.Len() != 3 {
		t.Fatalf("resumed %d sessions, want 3", store2.Len())
	}
	for id, want := range snapshots {
		var info httpapi.SessionInfo
		if code := doJSON(t, srv2, "GET", "/v1/sessions/"+id, nil, &info); code != 200 {
			t.Fatalf("status %s after restart: HTTP %d", id, code)
		}
		if info.Evaluations != want.evals {
			t.Fatalf("%s: resumed %d evaluations, want %d", id, info.Evaluations, want.evals)
		}
		if info.Best == nil || info.Best.Value != want.best {
			t.Fatalf("%s: resumed best %+v, want %v", id, info.Best, want.best)
		}

		// Suggestions after restart must be valid and unevaluated.
		var sug httpapi.SuggestResponse
		if code := doJSON(t, srv2, "POST", "/v1/sessions/"+id+"/suggest",
			httpapi.SuggestRequest{Count: 3}, &sug); code != 200 {
			t.Fatalf("suggest %s after restart: HTTP %d", id, code)
		}
		if len(sug.Candidates) == 0 {
			t.Fatalf("%s: no candidates after restart", id)
		}
		for _, cfg := range sug.Candidates {
			c, err := sp.FromLabels(cfg)
			if err != nil {
				t.Fatalf("%s: invalid candidate %v: %v", id, cfg, err)
			}
			if want.seen[sp.Key(c)] {
				t.Fatalf("%s: suggested already-evaluated config %v after restart", id, cfg)
			}
		}

		// And the loop keeps working end to end.
		drive(t, srv2, id, want.evals+2, 2)
	}
}

// TestJournalIsReadableByRecorderTooling checks the journal reuses the
// Recorder JSONL schema after its create header.
func TestJournalIsReadableByRecorderTooling(t *testing.T) {
	dir := t.TempDir()
	srv, store := newTestServer(t, dir)
	defer store.Close()
	id := createTestSession(t, srv, "journaled", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, id, 5, 2)

	tail, err := readJournalFile(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !tail.hdrOK {
		t.Fatal("journal header did not parse")
	}
	if len(tail.events) != 5 {
		t.Fatalf("journal holds %d events, want 5", len(tail.events))
	}
	// Best-so-far in the journal must be monotone non-increasing.
	raw, err := os.ReadFile(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Skip the header line, then reuse the Recorder parser.
	nl := bytes.IndexByte(raw, '\n')
	events, err := core.ReadEvents(bytes.NewReader(raw[nl+1:]))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("ReadEvents parsed %d events, want 5", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].BestSoFar > events[i-1].BestSoFar {
			t.Fatalf("best_so_far not monotone: %v", events)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, store := newTestServer(t, "")
	defer store.Close()
	id := createTestSession(t, srv, "", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, id, 6, 2)

	var m httpapi.MetricsResponse
	if code := doJSON(t, srv, "GET", "/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, name := range []string{"create", "suggest", "observe", "status"} {
		em, ok := m.Endpoints[name]
		if !ok || em.Requests == 0 {
			t.Fatalf("metrics missing endpoint %q: %+v", name, m.Endpoints)
		}
		if em.LatencyMS == nil || em.LatencyMS.N == 0 {
			t.Fatalf("metrics missing latency summary for %q", name)
		}
	}
	if m.Sessions != 1 || m.Evaluations != 6 {
		t.Fatalf("metrics sessions=%d evaluations=%d", m.Sessions, m.Evaluations)
	}
}

func TestCreateRejectsBadInput(t *testing.T) {
	srv, store := newTestServer(t, "")
	defer store.Close()
	// No space.
	if code := doJSON(t, srv, "POST", "/v1/sessions",
		httpapi.CreateSessionRequest{Name: "x"}, nil); code != http.StatusBadRequest {
		t.Fatalf("create without space: HTTP %d", code)
	}
	// Malformed space JSON.
	if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Space: json.RawMessage(`{"not":"a space"}`),
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("create with bad space: HTTP %d", code)
	}
	// Bad session name.
	if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Name: "no spaces allowed!", Space: testSpaceJSON(t),
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("create with bad name: HTTP %d", code)
	}
	// Names the mux would path-clean away from every session route.
	for _, name := range []string{".", ".."} {
		if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
			Name: name, Space: testSpaceJSON(t),
		}, nil); code != http.StatusBadRequest {
			t.Fatalf("create with name %q: HTTP %d", name, code)
		}
	}
	// Bad strategy.
	if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Space: testSpaceJSON(t), Options: httpapi.SessionOptions{Strategy: "genetic"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("create with bad strategy: HTTP %d", code)
	}
}

// TestCreateRejectsOversizedCounts sends, over a real HTTP server,
// creates whose counts would size an allocation past any useful value:
// a pool_cap NewTuner cannot allocate (it would panic while the store
// holds a shard lock), and a candidate_samples and a bins that every
// later suggest or status publish could not. Each must be a 400, and
// the daemon must stay live: /healthz answers within 2 s.
func TestCreateRejectsOversizedCounts(t *testing.T) {
	srv, store := newTestServer(t, "")
	ts := httptest.NewServer(srv)
	client := &http.Client{Timeout: 2 * time.Second}
	binary := make([]space.Param, 21) // 2^21 points: past the enumerate limit
	for i := range binary {
		binary[i] = space.DiscreteInts(fmt.Sprintf("p%d", i), 0, 1)
	}
	const huge = 1 << 62
	for _, probe := range []struct {
		name string
		sp   *space.Space
		opts httpapi.SessionOptions
	}{
		{"pool_cap", space.New(binary...), httpapi.SessionOptions{Strategy: "ranking", PoolCap: huge}},
		{"candidate_samples", testSpace(), httpapi.SessionOptions{CandidateSamples: huge}},
		{"bins", space.New(space.Continuous("x", 0, 1), space.DiscreteInts("y", 0, 1, 2)),
			httpapi.SessionOptions{Bins: huge}},
	} {
		spaceJSON, err := json.Marshal(probe.sp)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(httpapi.CreateSessionRequest{Space: spaceJSON, Options: probe.opts})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("create with %s %d: %v", probe.name, huge, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with %s %d: HTTP %d, want 400", probe.name, huge, resp.StatusCode)
		}
	}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the probes: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the probes: HTTP %d", resp.StatusCode)
	}
	// Closed only once healthz has answered: Close waits for every
	// handler, and a handler blocked on a held lock never returns.
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
