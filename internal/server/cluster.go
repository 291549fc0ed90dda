package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/internal/cluster"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// forwardedHeader marks a request as already forwarded once; a node
// receiving it for a session it does not own answers 508 instead of
// forwarding again, so a ring disagreement degrades to an error, not
// a forwarding loop. The value is the forwarding node's URL (for
// diagnostics only).
const forwardedHeader = "X-Hiperbot-Forwarded"

// ClusterConfig wires a Server into a static multi-node cluster. A
// request for a session another node owns is forwarded to that node.
type ClusterConfig struct {
	// Self is this node's advertised base URL — the URL peers reach it
	// at. Required.
	Self string
	// Peers are the other nodes' base URLs. Self is tolerated (and
	// removed) in the list, so every node can ship the identical list.
	Peers []string
}

const (
	// maxProbeTime bounds each peer health probe.
	maxProbeTime = time.Second
	// maxForwardTime bounds one forwarded request.
	maxForwardTime = 30 * time.Second
)

// clusterState is the per-node runtime: the ring, the pooled
// forwarding client, request counters, and a briefly-cached view of
// peer health.
type clusterState struct {
	self  string // normalized
	peers []string
	ring  *cluster.Ring
	hc    *http.Client

	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	hopRejects    atomic.Int64

	// probeMu guards the peer-health cache. Probes run at most once per
	// probeTTL per scrape wave, so /metrics and /healthz stay cheap
	// under monitoring pressure.
	probeMu  sync.Mutex
	probed   []httpapi.PeerStatus
	probedAt time.Time
}

// probeTTL is how long a peer-health probe result is served before
// re-probing.
const probeTTL = 2 * time.Second

// EnableCluster joins this server to a static cluster. Call once,
// before serving traffic. Session ids hash onto a consistent ring
// over {Self} ∪ Peers; requests for sessions another node owns are
// forwarded there.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	self, err := cluster.Normalize(cfg.Self)
	if err != nil {
		return fmt.Errorf("server: cluster self: %w", err)
	}
	ring, err := cluster.New(append([]string{cfg.Self}, cfg.Peers...))
	if err != nil {
		return err
	}
	if ring.Len() < 2 {
		return fmt.Errorf("server: cluster needs at least one peer besides self")
	}
	var peers []string
	for _, n := range ring.Nodes() {
		if n != self {
			peers = append(peers, n)
		}
	}
	s.cluster = &clusterState{
		self:  self,
		peers: peers,
		ring:  ring,
		hc: &http.Client{
			Timeout: maxForwardTime,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
			// Owners answer directly; a redirect from a peer means the
			// rings disagree, which must surface, not be chased.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
	}
	return nil
}

// Cluster reports whether the server runs in cluster mode, and its
// normalized self URL when it does.
func (s *Server) Cluster() (self string, enabled bool) {
	if s.cluster == nil {
		return "", false
	}
	return s.cluster.self, true
}

// routeSession is the ownership gate in front of every session-scoped
// handler. It returns handled=false when the session is owned locally
// (the wrapped handler runs); otherwise it has already answered the
// request — by forwarding it to the owner or rejecting a forwarding
// loop — and returns the status it wrote.
func (c *clusterState) routeSession(w http.ResponseWriter, r *http.Request, id string) (handled bool, status int, err error) {
	owner := c.ring.Owner(id)
	if owner == c.self {
		return false, 0, nil
	}
	status, err = c.forward(w, r, owner, r.Body, r.ContentLength)
	return true, status, err
}

// forward relays the request to the owner over the pooled client and
// copies the response back verbatim. body is the (possibly already
// buffered) request body to send. A request that was already
// forwarded once is answered 508 instead: the sender's ring disagrees
// with ours, and forwarding again could loop forever.
func (c *clusterState) forward(w http.ResponseWriter, r *http.Request, owner string, body io.Reader, contentLength int64) (int, error) {
	if via := r.Header.Get(forwardedHeader); via != "" {
		c.hopRejects.Add(1)
		return http.StatusLoopDetected, fmt.Errorf(
			"server: %s %s belongs to %s, not this node (%s), but the request was already forwarded by %s — peer lists disagree",
			r.Method, r.URL.Path, owner, c.self, via)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, owner+r.URL.RequestURI(), body)
	if err != nil {
		c.forwardErrors.Add(1)
		return http.StatusBadGateway, fmt.Errorf("server: forwarding to %s: %w", owner, err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	out.Header.Set(forwardedHeader, c.self)
	out.ContentLength = contentLength
	resp, err := c.hc.Do(out)
	if err != nil {
		c.forwardErrors.Add(1)
		return http.StatusBadGateway, fmt.Errorf("server: forwarding to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	c.forwarded.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // best effort: the status line is already out
	return resp.StatusCode, nil
}

// selfOwnedID generates a fresh session id that hashes to this node,
// so a create without an explicit name always lands locally — clients
// may create against any node and the data stays where the request
// landed. With N nodes each draw succeeds with probability 1/N; 128
// draws failing is (1-1/N)^128, negligible for any sane cluster size.
func (c *clusterState) selfOwnedID() (string, error) {
	for i := 0; i < 128; i++ {
		id := newID()
		if c.ring.Owner(id) == c.self {
			return id, nil
		}
	}
	return "", fmt.Errorf("server: could not generate a session id owned by %s (ring too unbalanced?)", c.self)
}

// peerStatuses probes every peer's /healthz?scope=local, serving a
// cached result within probeTTL so scrape storms don't multiply
// probe traffic. Probes run concurrently, each bounded by
// maxProbeTime.
func (c *clusterState) peerStatuses(ctx context.Context) []httpapi.PeerStatus {
	c.probeMu.Lock()
	if c.probed != nil && time.Since(c.probedAt) < probeTTL {
		out := append([]httpapi.PeerStatus(nil), c.probed...)
		c.probeMu.Unlock()
		return out
	}
	c.probeMu.Unlock()

	statuses := make([]httpapi.PeerStatus, len(c.peers))
	var wg sync.WaitGroup
	for i, peer := range c.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			statuses[i] = c.probePeer(ctx, peer)
		}(i, peer)
	}
	wg.Wait()
	sort.Slice(statuses, func(a, b int) bool { return statuses[a].URL < statuses[b].URL })

	c.probeMu.Lock()
	c.probed = statuses
	c.probedAt = time.Now()
	out := append([]httpapi.PeerStatus(nil), statuses...)
	c.probeMu.Unlock()
	return out
}

func (c *clusterState) probePeer(ctx context.Context, peer string) httpapi.PeerStatus {
	st := httpapi.PeerStatus{URL: peer}
	ctx, cancel := context.WithTimeout(ctx, maxProbeTime)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz?scope=local", nil)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return st
	}
	var h httpapi.HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		st.Error = fmt.Sprintf("bad health payload: %v", err)
		return st
	}
	st.Reachable = true
	st.Status = h.Status
	st.Sessions = h.Sessions
	return st
}

// fanOutSessions collects every peer's local session list in
// parallel. Unreachable peers are reported by URL, never silently
// skipped — a merged listing that quietly lost a node would read as
// "those sessions are gone".
func (c *clusterState) fanOutSessions(ctx context.Context) (infos []httpapi.SessionInfo, unreachable []string) {
	type result struct {
		peer  string
		infos []httpapi.SessionInfo
		err   error
	}
	results := make([]result, len(c.peers))
	var wg sync.WaitGroup
	for i, peer := range c.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			results[i] = result{peer: peer}
			rctx, cancel := context.WithTimeout(ctx, c.hc.Timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(rctx, http.MethodGet, peer+"/v1/sessions?scope=local", nil)
			if err != nil {
				results[i].err = err
				return
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			var list httpapi.SessionListResponse
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				results[i].err = err
				return
			}
			results[i].infos = list.Sessions
		}(i, peer)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			unreachable = append(unreachable, res.peer)
			continue
		}
		infos = append(infos, res.infos...)
	}
	sort.Strings(unreachable)
	return infos, unreachable
}

// health builds the cluster section of /healthz.
func (c *clusterState) health(ctx context.Context) *httpapi.ClusterHealth {
	return &httpapi.ClusterHealth{
		Self:  c.self,
		Nodes: c.ring.Len(),
		Peers: c.peerStatuses(ctx),
	}
}

// metrics builds the cluster section of /metrics. infos is the local
// session inventory (ids only are read).
func (c *clusterState) metrics(ctx context.Context, infos []httpapi.SessionInfo) *httpapi.ClusterMetrics {
	owned := make(map[string]int, c.ring.Len())
	misplaced := 0
	for _, info := range infos {
		owner := c.ring.Owner(info.ID)
		owned[owner]++
		if owner != c.self {
			misplaced++
		}
	}
	return &httpapi.ClusterMetrics{
		Self:              c.self,
		Peers:             c.peerStatuses(ctx),
		OwnedSessions:     owned,
		MisplacedSessions: misplaced,
		ForwardedRequests: c.forwarded.Load(),
		ForwardErrors:     c.forwardErrors.Load(),
		HopRejects:        c.hopRejects.Load(),
	}
}
