package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// clusterNode bundles one live node of a test cluster.
type clusterNode struct {
	srv   *Server
	store *Store
	ts    *httptest.Server
	url   string
	dir   string
}

// newTestCluster starts n hiperbotd nodes on real loopback listeners
// and joins them into one static cluster. Every node gets the full
// (identical) URL list; EnableCluster strips self. dirs=true gives
// each node its own journal directory.
func newTestCluster(t *testing.T, n int, cfg StoreConfig, dirs bool) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		dir := ""
		if dirs {
			dir = t.TempDir()
		}
		store, err := OpenStoreWithConfig(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(store, nil)
		ts := httptest.NewServer(srv)
		nodes[i] = &clusterNode{srv: srv, store: store, ts: ts, url: ts.URL, dir: dir}
		urls[i] = ts.URL
		t.Cleanup(ts.Close)
		t.Cleanup(func() { store.Close() })
	}
	for _, node := range nodes {
		if err := node.srv.EnableCluster(ClusterConfig{Self: node.url, Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

var testHTTP = &http.Client{Timeout: 10 * time.Second}

// httpJSON issues a real network request, decodes a 2xx reply into
// out, and returns the status code.
func httpJSON(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := testHTTP.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// ownerIndex finds which node of the cluster owns id.
func ownerIndex(t *testing.T, nodes []*clusterNode, id string) int {
	t.Helper()
	owner := nodes[0].srv.cluster.ring.Owner(id)
	for i, node := range nodes {
		if node.srv.cluster.self == owner {
			return i
		}
	}
	t.Fatalf("owner %s of %q is not any test node", owner, id)
	return -1
}

// nameOwnedBy generates a session name the i-th node owns.
func nameOwnedBy(t *testing.T, nodes []*clusterNode, i int) string {
	t.Helper()
	for k := 0; k < 4096; k++ {
		name := fmt.Sprintf("sess-%04d", k)
		if ownerIndex(t, nodes, name) == i {
			return name
		}
	}
	t.Fatal("no name owned by node found in 4096 tries")
	return ""
}

func clusterCreate(t *testing.T, url, name string, opts httpapi.SessionOptions) (string, int) {
	t.Helper()
	var resp httpapi.CreateSessionResponse
	code := httpJSON(t, "POST", url+"/v1/sessions", httpapi.CreateSessionRequest{
		Name: name, Space: testSpaceJSON(t), Options: opts,
	}, &resp)
	return resp.ID, code
}

// TestClusterAnonymousCreateLandsLocally: a create without a name must
// generate an id the receiving node owns, so anonymous sessions never
// need a forward for their own creation.
func TestClusterAnonymousCreateLandsLocally(t *testing.T) {
	nodes := newTestCluster(t, 3, StoreConfig{}, false)
	for i, node := range nodes {
		id, code := clusterCreate(t, node.url, "", httpapi.SessionOptions{Seed: uint64(i + 1)})
		if code != http.StatusCreated {
			t.Fatalf("node %d create: HTTP %d", i, code)
		}
		if got := ownerIndex(t, nodes, id); got != i {
			t.Fatalf("node %d generated id %s owned by node %d", i, id, got)
		}
		if _, err := node.store.Get(id); err != nil {
			t.Fatalf("node %d does not hold its own session %s: %v", i, id, err)
		}
	}
}

// TestClusterNamedCreateDiverted: a named create for a session another
// node owns is forwarded there; the session materializes on the owner
// only.
func TestClusterNamedCreateDiverted(t *testing.T) {
	nodes := newTestCluster(t, 3, StoreConfig{}, false)
	name := nameOwnedBy(t, nodes, 1)
	id, code := clusterCreate(t, nodes[0].url, name, httpapi.SessionOptions{Seed: 7})
	if code != http.StatusCreated {
		t.Fatalf("create via non-owner: HTTP %d", code)
	}
	if id != name {
		t.Fatalf("created id = %q, want %q", id, name)
	}
	if _, err := nodes[1].store.Get(name); err != nil {
		t.Fatalf("owner node does not hold %s: %v", name, err)
	}
	if _, err := nodes[0].store.Get(name); err == nil {
		t.Fatalf("non-owner node also holds %s", name)
	}
	if got := nodes[0].srv.cluster.forwarded.Load(); got < 1 {
		t.Fatalf("forwarded counter = %d, want >= 1", got)
	}
}

// driveSession runs rounds of suggest(1)+observe against a rotating
// list of URLs and returns the JSON-encoded candidate sequence.
func driveSession(t *testing.T, urls []string, id string, rounds int) []string {
	t.Helper()
	var seq []string
	for r := 0; r < rounds; r++ {
		url := urls[r%len(urls)]
		var sg httpapi.SuggestResponse
		if code := httpJSON(t, "POST", url+"/v1/sessions/"+id+"/suggest",
			httpapi.SuggestRequest{Count: 1}, &sg); code != http.StatusOK {
			t.Fatalf("round %d suggest via %s: HTTP %d", r, url, code)
		}
		if len(sg.Candidates) != 1 {
			t.Fatalf("round %d: got %d candidates", r, len(sg.Candidates))
		}
		labels := sg.Candidates[0]
		data, err := json.Marshal(labels)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, string(data))
		cfg, err := testSpace().FromLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		if code := httpJSON(t, "POST", url+"/v1/sessions/"+id+"/observe", httpapi.ObserveRequest{
			Results: []httpapi.Result{{Config: labels, Value: testValue(cfg)}},
		}, nil); code != http.StatusOK {
			t.Fatalf("round %d observe via %s: HTTP %d", r, url, code)
		}
	}
	return seq
}

// TestClusterSuggestBitIdentical is the golden routing test: the
// suggestion sequence of a session reached alternately direct and via
// forwarding non-owners must equal a standalone (clusterless) control
// session with the same seed and observations.
func TestClusterSuggestBitIdentical(t *testing.T) {
	const rounds = 10
	opts := httpapi.SessionOptions{Seed: 42, InitialSamples: 4}

	control := func(name string) []string {
		srv, store := newTestServer(t, "")
		defer store.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		id, code := clusterCreate(t, ts.URL, name, opts)
		if code != http.StatusCreated {
			t.Fatalf("control create: HTTP %d", code)
		}
		return driveSession(t, []string{ts.URL}, id, rounds)
	}

	t.Run("proxy", func(t *testing.T) {
		nodes := newTestCluster(t, 3, StoreConfig{}, false)
		name := nameOwnedBy(t, nodes, 0)
		id, code := clusterCreate(t, nodes[0].url, name, opts)
		if code != http.StatusCreated {
			t.Fatalf("create: HTTP %d", code)
		}
		urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
		got := driveSession(t, urls, id, rounds)
		want := control(name)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("round %d: cluster candidate %s != control %s", r, got[r], want[r])
			}
		}
		var forwarded int64
		for _, n := range nodes[1:] {
			forwarded += n.srv.cluster.forwarded.Load()
		}
		if forwarded < 1 {
			t.Fatal("no requests were forwarded through non-owners")
		}
	})
}

// TestClusterHopGuard: when two nodes' peer lists disagree such that a
// forwarded request lands on a node that still doesn't own the
// session, the receiver answers 508 instead of forwarding again.
func TestClusterHopGuard(t *testing.T) {
	mk := func() (*Server, *Store, *httptest.Server) {
		srv, store := newTestServer(t, "")
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { store.Close() })
		return srv, store, ts
	}
	srvA, _, tsA := mk()
	srvB, _, tsB := mk()
	ghost := "http://127.0.0.1:1" // unreachable third node only B believes in

	if err := srvA.EnableCluster(ClusterConfig{Self: tsA.URL, Peers: []string{tsB.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.EnableCluster(ClusterConfig{Self: tsB.URL, Peers: []string{ghost}}); err != nil {
		t.Fatal(err)
	}

	// Find an id A routes to B but B routes to the ghost.
	var id string
	for k := 0; k < 65536; k++ {
		cand := fmt.Sprintf("disputed-%05d", k)
		if srvA.cluster.ring.Owner(cand) == srvA.cluster.peers[0] &&
			srvB.cluster.ring.Owner(cand) == ghost {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no disputed id found")
	}

	code := httpJSON(t, "GET", tsA.URL+"/v1/sessions/"+id, nil, nil)
	if code != http.StatusLoopDetected {
		t.Fatalf("disputed request: HTTP %d, want %d", code, http.StatusLoopDetected)
	}
	if got := srvB.cluster.hopRejects.Load(); got != 1 {
		t.Fatalf("hop rejects on receiver = %d, want 1", got)
	}
	if got := srvA.cluster.forwarded.Load(); got != 1 {
		t.Fatalf("forwarded on sender = %d, want 1", got)
	}
}

// TestClusterListFanOut: the merged listing contains every node's
// sessions exactly once; scope=local stays node-local; a dead peer is
// reported by URL rather than silently dropped.
func TestClusterListFanOut(t *testing.T) {
	nodes := newTestCluster(t, 3, StoreConfig{}, false)
	ids := make([]string, len(nodes))
	for i, node := range nodes {
		id, code := clusterCreate(t, node.url, "", httpapi.SessionOptions{Seed: uint64(i + 1)})
		if code != http.StatusCreated {
			t.Fatalf("node %d create: HTTP %d", i, code)
		}
		ids[i] = id
	}

	var merged httpapi.SessionListResponse
	if code := httpJSON(t, "GET", nodes[0].url+"/v1/sessions", nil, &merged); code != http.StatusOK {
		t.Fatalf("merged list: HTTP %d", code)
	}
	if len(merged.Sessions) != 3 || len(merged.UnreachablePeers) != 0 {
		t.Fatalf("merged list: %d sessions, %d unreachable, want 3/0",
			len(merged.Sessions), len(merged.UnreachablePeers))
	}
	seen := map[string]bool{}
	for _, info := range merged.Sessions {
		seen[info.ID] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("merged list is missing %s", id)
		}
	}

	var local httpapi.SessionListResponse
	if code := httpJSON(t, "GET", nodes[0].url+"/v1/sessions?scope=local", nil, &local); code != http.StatusOK {
		t.Fatalf("local list: HTTP %d", code)
	}
	if len(local.Sessions) != 1 || local.Sessions[0].ID != ids[0] {
		t.Fatalf("local list = %+v, want exactly [%s]", local.Sessions, ids[0])
	}

	var health httpapi.HealthResponse
	if code := httpJSON(t, "GET", nodes[0].url+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if health.Cluster == nil || health.Cluster.Nodes != 3 || len(health.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster = %+v, want 3 nodes / 2 peers", health.Cluster)
	}
	for _, p := range health.Cluster.Peers {
		if !p.Reachable {
			t.Fatalf("peer %s unreachable: %s", p.URL, p.Error)
		}
	}

	nodes[2].ts.Close()
	var degraded httpapi.SessionListResponse
	if code := httpJSON(t, "GET", nodes[0].url+"/v1/sessions", nil, &degraded); code != http.StatusOK {
		t.Fatalf("degraded list: HTTP %d", code)
	}
	if len(degraded.Sessions) != 2 {
		t.Fatalf("degraded list: %d sessions, want 2", len(degraded.Sessions))
	}
	if len(degraded.UnreachablePeers) != 1 || degraded.UnreachablePeers[0] != nodes[2].url {
		t.Fatalf("degraded unreachable = %v, want [%s]", degraded.UnreachablePeers, nodes[2].url)
	}
}

// TestClusterMetrics: each node's /metrics cluster section attributes
// every local session to its ring owner and reports zero misplaced
// sessions under a stable ring.
func TestClusterMetrics(t *testing.T) {
	nodes := newTestCluster(t, 3, StoreConfig{}, false)
	for i, node := range nodes {
		if _, code := clusterCreate(t, node.url, "", httpapi.SessionOptions{Seed: uint64(i + 1)}); code != http.StatusCreated {
			t.Fatalf("node %d create: HTTP %d", i, code)
		}
	}
	for i, node := range nodes {
		var m httpapi.MetricsResponse
		if code := httpJSON(t, "GET", node.url+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("node %d metrics: HTTP %d", i, code)
		}
		c := m.Cluster
		if c == nil {
			t.Fatalf("node %d metrics has no cluster section", i)
		}
		if c.MisplacedSessions != 0 {
			t.Fatalf("node %d: %d misplaced sessions, want 0", i, c.MisplacedSessions)
		}
		if got := c.OwnedSessions[node.srv.cluster.self]; got != 1 {
			t.Fatalf("node %d owns %d of its local sessions, want 1", i, got)
		}
		if m.HeapAllocMB <= 0 {
			t.Fatalf("node %d: heap_alloc_mb = %v, want > 0", i, m.HeapAllocMB)
		}
	}
}

// TestClusterForwardRehydratesEvictedStub is the eviction-composition
// test: a forwarded request landing on an evicted session must
// rehydrate it (single-flight) and answer bit-identically to a
// clusterless control with the same history.
func TestClusterForwardRehydratesEvictedStub(t *testing.T) {
	opts := httpapi.SessionOptions{Seed: 99, InitialSamples: 2}
	cfg := StoreConfig{SnapshotEvents: 2, MaxLiveSessions: 1}
	observations := []httpapi.Result{
		{Config: map[string]string{"x": "0", "y": "0"}, Value: 5},
		{Config: map[string]string{"x": "3", "y": "3"}, Value: 5},
		{Config: map[string]string{"x": "1", "y": "1"}, Value: 1},
	}

	nodes := newTestCluster(t, 2, cfg, true)
	victim := nameOwnedBy(t, nodes, 0)
	if _, code := clusterCreate(t, nodes[0].url, victim, opts); code != http.StatusCreated {
		t.Fatalf("create victim: HTTP %d", code)
	}
	if code := httpJSON(t, "POST", nodes[0].url+"/v1/sessions/"+victim+"/observe",
		httpapi.ObserveRequest{Results: observations}, nil); code != http.StatusOK {
		t.Fatalf("observe victim: HTTP %d", code)
	}
	// A second session owned by node 0 pushes the victim over the
	// live-session cap.
	other := ""
	for k := 0; k < 4096 && other == ""; k++ {
		cand := fmt.Sprintf("spare-%04d", k)
		if cand != victim && ownerIndex(t, nodes, cand) == 0 {
			other = cand
		}
	}
	if other == "" {
		t.Fatal("no second node-0-owned name found")
	}
	if _, code := clusterCreate(t, nodes[0].url, other, opts); code != http.StatusCreated {
		t.Fatalf("create second session: HTTP %d", code)
	}
	if got := nodes[0].store.Stats().Evictions; got < 1 {
		t.Fatalf("evictions = %d, want >= 1", got)
	}

	// Hammer the evicted session through the non-owner: every request
	// is forwarded to node 0, which must rehydrate exactly once.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("GET", nodes[1].url+"/v1/sessions/"+victim, nil)
			if err != nil {
				errs <- err
				return
			}
			resp, err := testHTTP.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var info httpapi.SessionInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || info.Evaluations != len(observations) {
				errs <- fmt.Errorf("status via proxy: HTTP %d, evaluations %d", resp.StatusCode, info.Evaluations)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := nodes[0].store.Stats().Rehydrations; got != 1 {
		t.Fatalf("rehydrations = %d, want exactly 1 (single-flight)", got)
	}

	var viaProxy httpapi.SuggestResponse
	if code := httpJSON(t, "POST", nodes[1].url+"/v1/sessions/"+victim+"/suggest",
		httpapi.SuggestRequest{Count: 1}, &viaProxy); code != http.StatusOK {
		t.Fatalf("suggest via proxy: HTTP %d", code)
	}

	// Clusterless control with the identical history.
	srv, store := newTestServer(t, "")
	defer store.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, code := clusterCreate(t, ts.URL, victim, opts); code != http.StatusCreated {
		t.Fatalf("control create: HTTP %d", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/sessions/"+victim+"/observe",
		httpapi.ObserveRequest{Results: observations}, nil); code != http.StatusOK {
		t.Fatalf("control observe: HTTP %d", code)
	}
	var direct httpapi.SuggestResponse
	if code := httpJSON(t, "POST", ts.URL+"/v1/sessions/"+victim+"/suggest",
		httpapi.SuggestRequest{Count: 1}, &direct); code != http.StatusOK {
		t.Fatalf("control suggest: HTTP %d", code)
	}
	got, _ := json.Marshal(viaProxy.Candidates)
	want, _ := json.Marshal(direct.Candidates)
	if string(got) != string(want) {
		t.Fatalf("rehydrated-via-proxy candidates %s != direct %s", got, want)
	}
}

// TestClusterNodeRestartResumes: restarting one node on the same
// address resumes its sessions from snapshot+journal, with the ring
// unchanged — peers keep routing to it as before.
func TestClusterNodeRestartResumes(t *testing.T) {
	cfg := StoreConfig{SnapshotEvents: 4}
	dir0 := t.TempDir()

	listen := func(addr string) net.Listener {
		var l net.Listener
		var err error
		for i := 0; i < 100; i++ {
			l, err = net.Listen("tcp", addr)
			if err == nil {
				return l
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("listen %s: %v", addr, err)
		return nil
	}
	serveOn := func(l net.Listener, srv *Server) *httptest.Server {
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		return ts
	}

	l0 := listen("127.0.0.1:0")
	addr0 := l0.Addr().String()
	url0 := "http://" + addr0

	store0, err := OpenStoreWithConfig(dir0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv0 := New(store0, nil)
	ts0 := serveOn(l0, srv0)

	store1, err := OpenStoreWithConfig(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store1.Close()
	srv1 := New(store1, nil)
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()

	urls := []string{url0, ts1.URL}
	if err := srv0.EnableCluster(ClusterConfig{Self: url0, Peers: urls}); err != nil {
		t.Fatal(err)
	}
	if err := srv1.EnableCluster(ClusterConfig{Self: ts1.URL, Peers: urls}); err != nil {
		t.Fatal(err)
	}
	ringBefore := strings.Join(srv1.cluster.ring.Nodes(), ",")

	// A session owned by node 0, with some history.
	name := ""
	for k := 0; k < 4096 && name == ""; k++ {
		cand := fmt.Sprintf("restart-%04d", k)
		if srv1.cluster.ring.Owner(cand) == srv0.cluster.self {
			name = cand
		}
	}
	if name == "" {
		t.Fatal("no node-0-owned name found")
	}
	opts := httpapi.SessionOptions{Seed: 5, InitialSamples: 2}
	if _, code := clusterCreate(t, url0, name, opts); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	driveSession(t, []string{url0}, name, 3)

	// Stop node 0 and bring it back on the same address and data dir.
	ts0.Close()
	if err := store0.Close(); err != nil {
		t.Fatal(err)
	}
	store0b, err := OpenStoreWithConfig(dir0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store0b.Close()
	srv0b := New(store0b, nil)
	if err := srv0b.EnableCluster(ClusterConfig{Self: url0, Peers: urls}); err != nil {
		t.Fatal(err)
	}
	ts0b := serveOn(listen(addr0), srv0b)
	defer ts0b.Close()

	if after := strings.Join(srv0b.cluster.ring.Nodes(), ","); after != ringBefore {
		t.Fatalf("ring changed across restart: %s != %s", after, ringBefore)
	}

	// Route through the surviving peer: the forward must reach the
	// restarted node and see the pre-restart history. The first
	// attempts may hit pooled connections to the dead process, so
	// retry briefly.
	var info httpapi.SessionInfo
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := httpJSON(t, "GET", ts1.URL+"/v1/sessions/"+name, nil, &info)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status via peer after restart: HTTP %d", code)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if info.Evaluations != 3 {
		t.Fatalf("evaluations after restart = %d, want 3", info.Evaluations)
	}
	var sg httpapi.SuggestResponse
	if code := httpJSON(t, "POST", ts1.URL+"/v1/sessions/"+name+"/suggest",
		httpapi.SuggestRequest{Count: 1}, &sg); code != http.StatusOK {
		t.Fatalf("suggest via peer after restart: HTTP %d", code)
	}
	if len(sg.Candidates) != 1 {
		t.Fatalf("suggest after restart returned %d candidates", len(sg.Candidates))
	}
}
