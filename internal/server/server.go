// Package server implements hiperbotd, the tuning-as-a-service HTTP
// daemon: many named tuning sessions hosted concurrently behind an
// ask/tell JSON API, with per-lease deadlines so crashed workers
// don't strand candidates, per-session JSONL journals so a restarted
// daemon resumes every campaign without losing evaluations, and
// built-in request metrics.
//
// Endpoints:
//
//	POST   /v1/sessions               create a session from Space JSON + options
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          progress: best-so-far, counts, importance
//	DELETE /v1/sessions/{id}          drop a session and its journal
//	POST   /v1/sessions/{id}/suggest  lease a batch of candidates
//	POST   /v1/sessions/{id}/renew    extend leases a worker still holds
//	POST   /v1/sessions/{id}/observe  report results (idempotent)
//	GET    /healthz                   liveness (+ per-peer reachability in cluster mode)
//	GET    /metrics                   request counters + latency summaries
//
// In cluster mode (EnableCluster) session ids are partitioned over a
// consistent-hash ring spanning all nodes; every session-scoped route
// first checks ownership and forwards requests for sessions another
// node owns to that node, GET /v1/sessions fans out across peers
// and merges, and /healthz and /metrics report per-peer reachability
// and forwarding counters. ?scope=local on the list and health
// endpoints restricts to this node (and is what nodes use on each
// other, so fan-out never cascades).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"time"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Server is the HTTP front-end over a session Store. It implements
// http.Handler.
type Server struct {
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux
	logf    func(format string, args ...any)

	// cluster is nil on single-node daemons; set once by EnableCluster
	// before the server takes traffic.
	cluster *clusterState

	// DefaultLease bounds candidate leases when a suggest request
	// doesn't set lease_seconds.
	DefaultLease time.Duration
	// MaxBatch caps the candidate count of one suggest call.
	MaxBatch int
}

// New builds a server over store. logger may be nil.
func New(store *Store, logger *log.Logger) *Server {
	s := &Server{
		store:        store,
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		DefaultLease: 10 * time.Minute,
		MaxBatch:     256,
		logf:         func(string, ...any) {},
	}
	if logger != nil {
		s.logf = logger.Printf
	}
	s.route("POST /v1/sessions", "create", s.handleCreate)
	s.route("GET /v1/sessions", "list", s.handleList)
	s.route("GET /v1/sessions/{id}", "status", s.owned(s.handleStatus))
	s.route("GET /v1/sessions/{id}/importance", "importance", s.owned(s.handleImportance))
	s.route("DELETE /v1/sessions/{id}", "delete", s.owned(s.handleDelete))
	s.route("POST /v1/sessions/{id}/suggest", "suggest", s.owned(s.handleSuggest))
	s.route("POST /v1/sessions/{id}/renew", "renew", s.owned(s.handleRenew))
	s.route("POST /v1/sessions/{id}/observe", "observe", s.owned(s.handleObserve))
	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	return s
}

// owned gates a session-scoped handler on ring ownership: in cluster
// mode, requests for sessions another node owns are forwarded there
// before the handler (or its body decoding) runs.
// Single-node servers pay one nil check.
func (s *Server) owned(h func(w http.ResponseWriter, r *http.Request) (int, error)) func(w http.ResponseWriter, r *http.Request) (int, error) {
	return func(w http.ResponseWriter, r *http.Request) (int, error) {
		if c := s.cluster; c != nil {
			if handled, status, err := c.routeSession(w, r, r.PathValue("id")); handled {
				return status, err
			}
		}
		return h(w, r)
	}
}

// Metrics exposes the request-metrics registry (e.g. for expvar
// publication by the daemon binary).
func (s *Server) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot renders the current metrics payload.
func (s *Server) MetricsSnapshot() httpapi.MetricsResponse {
	resp := s.metrics.Snapshot(s.store.Stats())
	if c := s.cluster; c != nil {
		resp.Cluster = c.metrics(context.Background(), s.store.Infos())
	}
	return resp
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route installs a handler wrapped with metrics accounting.
func (s *Server) route(pattern, name string, h func(w http.ResponseWriter, r *http.Request) (int, error)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status, err := h(w, r)
		if err != nil {
			writeJSON(w, status, httpapi.ErrorResponse{Error: err.Error()})
			s.logf("hiperbotd: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
		}
		s.metrics.Observe(name, status, time.Since(start))
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) (int, error) {
	// The body is buffered (not stream-decoded) because a clustered
	// node may need to re-send it verbatim when the named session
	// hashes to a peer.
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 8<<20))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err)
	}
	var req httpapi.CreateSessionRequest
	if err := decodeJSON(body, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if len(req.Space) == 0 {
		return http.StatusBadRequest, fmt.Errorf("server: create request without a space")
	}
	if c := s.cluster; c != nil {
		if req.Name == "" {
			// No name: pick an id this node owns, so an anonymous create
			// lands wherever the client sent it — never a second hop.
			id, err := c.selfOwnedID()
			if err != nil {
				return http.StatusInternalServerError, err
			}
			req.Name = id
		} else if owner := c.ring.Owner(req.Name); owner != c.self {
			// Decoding consumed the body; re-send the buffered bytes.
			return c.forward(w, r, owner, bytes.NewReader(body), int64(len(body)))
		}
	}
	sess, err := s.store.Create(req.Name, req.Space, req.Options)
	switch {
	case errors.Is(err, ErrExists):
		return http.StatusConflict, err
	case err != nil:
		return http.StatusBadRequest, err
	}
	s.logf("hiperbotd: created session %s (%d params)", sess.ID(), sess.Space().NumParams())
	writeJSON(w, http.StatusCreated, httpapi.CreateSessionResponse{ID: sess.ID()})
	return http.StatusCreated, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) (int, error) {
	// Infos serves evicted sessions from their eviction-time snapshot
	// info — listing 100k sessions must not rehydrate 100k tuners.
	resp := httpapi.SessionListResponse{Sessions: s.store.Infos()}
	if c := s.cluster; c != nil && r.URL.Query().Get("scope") != "local" {
		peerInfos, unreachable := c.fanOutSessions(r.Context())
		resp.Sessions = mergeSessionInfos(resp.Sessions, peerInfos)
		resp.UnreachablePeers = unreachable
	}
	if resp.Sessions == nil {
		resp.Sessions = []httpapi.SessionInfo{}
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// mergeSessionInfos combines the local inventory with peers',
// deduplicating by id (local wins — a duplicate only happens when a
// ring change stranded a session's files on two nodes) and restoring
// the sorted-by-id contract of the single-node listing.
func mergeSessionInfos(local, remote []httpapi.SessionInfo) []httpapi.SessionInfo {
	seen := make(map[string]bool, len(local))
	out := local
	for _, info := range local {
		seen[info.ID] = true
	}
	for _, info := range remote {
		if !seen[info.ID] {
			seen[info.ID] = true
			out = append(out, info)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) (int, error) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		return sessionStatus(err), err
	}
	writeJSON(w, http.StatusOK, sess.Info())
	return http.StatusOK, nil
}

// handleImportance serves the per-parameter marginal reports of a
// session's fitted surrogate, sorted by descending importance. 409
// while the session is still collecting initial samples (there is no
// surrogate to report yet) or when the engine has no marginal view.
func (s *Server) handleImportance(w http.ResponseWriter, r *http.Request) (int, error) {
	var resp httpapi.ImportanceResponse
	var notReady error
	err := s.store.WithSession(r.PathValue("id"), func(sess *Session) error {
		reports, err := sess.Marginals()
		if err != nil {
			return err
		}
		if reports == nil {
			notReady = fmt.Errorf("server: session %s has no fitted surrogate yet (still in the initial phase, or a model without marginals)", sess.ID())
			return nil
		}
		resp = httpapi.ImportanceResponse{
			ID:          sess.ID(),
			Evaluations: sess.Snapshot().Evaluations,
			Marginals:   reports,
		}
		return nil
	})
	switch {
	case err != nil:
		return sessionStatus(err), err
	case notReady != nil:
		return http.StatusConflict, notReady
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	if err := s.store.Delete(id); err != nil {
		return sessionStatus(err), err
	}
	s.logf("hiperbotd: deleted session %s", id)
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent, nil
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) (int, error) {
	var req httpapi.SuggestRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	count := req.Count
	if count == 0 {
		count = 1
	}
	if count < 0 || count > s.MaxBatch {
		return http.StatusBadRequest, fmt.Errorf("server: count %d outside [1,%d]", count, s.MaxBatch)
	}
	ttl, err := s.leaseTTL(req.LeaseSeconds)
	if err != nil {
		return http.StatusBadRequest, err
	}
	// Suggest rehydrates an evicted session in place under its lock.
	var resp httpapi.SuggestResponse
	err = s.store.WithSession(r.PathValue("id"), func(sess *Session) error {
		picks, phase, err := sess.Suggest(count, ttl)
		if err != nil {
			return err
		}
		resp = httpapi.SuggestResponse{
			Candidates: make([]map[string]string, len(picks)),
			Phase:      phase,
			Exhausted:  len(picks) == 0,
		}
		for i, c := range picks {
			resp.Candidates[i] = sess.Space().Labels(c)
		}
		return nil
	})
	if err != nil {
		return sessionStatus(err), err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// leaseTTL resolves a request's lease_seconds against the server
// default. Negative values mean "lease forever", which is only honored
// when the server itself runs without a lease bound (-lease 0):
// otherwise a crashed worker holding an immortal lease would strand
// its candidates for the daemon's lifetime, so the request is rejected
// with 400 instead of silently outliving the operator's policy.
func (s *Server) leaseTTL(leaseSeconds float64) (time.Duration, error) {
	if leaseSeconds == 0 {
		return s.DefaultLease, nil
	}
	if leaseSeconds < 0 && s.DefaultLease > 0 {
		return 0, fmt.Errorf("server: lease_seconds %v requests a forever lease, but this server enforces a finite lease (default %s)",
			leaseSeconds, s.DefaultLease)
	}
	return time.Duration(leaseSeconds * float64(time.Second)), nil
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) (int, error) {
	var req httpapi.RenewRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if len(req.Configs) == 0 {
		return http.StatusBadRequest, fmt.Errorf("server: renew request without configs")
	}
	ttl, err := s.leaseTTL(req.LeaseSeconds)
	if err != nil {
		return http.StatusBadRequest, err
	}
	var resp httpapi.RenewResponse
	err = s.store.WithSession(r.PathValue("id"), func(sess *Session) error {
		configs := make([]space.Config, len(req.Configs))
		for i, labels := range req.Configs {
			c, err := sess.Space().FromLabels(labels)
			if err != nil {
				return &InvalidConfigError{Reason: fmt.Errorf("server: config %d: %w", i, err)}
			}
			configs[i] = c
		}
		renewed, lost, err := sess.Renew(configs, ttl)
		if err != nil {
			return err
		}
		resp = httpapi.RenewResponse{Renewed: renewed}
		for _, c := range lost {
			resp.Lost = append(resp.Lost, sess.Space().Labels(c))
		}
		return nil
	})
	if err != nil {
		return sessionStatus(err), err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) (int, error) {
	var req httpapi.ObserveRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if len(req.Results) == 0 {
		return http.StatusBadRequest, fmt.Errorf("server: observe request without results")
	}
	var resp httpapi.ObserveResponse
	// Each ObserveResult takes the session lock on its own, so eviction
	// may run between two results of a batch; the next result then
	// rehydrates the session in place, with every earlier result in its
	// snapshot. A client retry of a failed batch is safe: already-recorded
	// configs count as duplicates.
	err := s.store.WithSession(r.PathValue("id"), func(sess *Session) error {
		// Parse and validate every configuration up front so a malformed
		// entry rejects the whole batch instead of half-applying it.
		configs := make([]space.Config, len(req.Results))
		for i, res := range req.Results {
			c, err := sess.Space().FromLabels(res.Config)
			if err != nil {
				return &InvalidConfigError{Reason: fmt.Errorf("server: result %d: %w", i, err)}
			}
			configs[i] = c
		}
		resp = httpapi.ObserveResponse{}
		for i, c := range configs {
			added, err := sess.ObserveResult(c, req.Results[i].Value, req.Results[i].Metrics)
			switch {
			case err != nil:
				return fmt.Errorf("server: result %d: %w", i, err)
			case added:
				resp.Added++
			default:
				resp.Duplicates++
			}
		}
		// Observe republished the snapshot on its way out; reading it
		// here is lock-free and as fresh as the last result above.
		info := sess.Snapshot()
		resp.Evaluations = info.Evaluations
		resp.Best = info.Best
		resp.ParetoFront = info.ParetoFront
		return nil
	})
	if err != nil {
		return sessionStatus(err), err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// sessionStatus is the HTTP status of a session route's error: 404 for
// an unknown session, 400 for malformed input, and 500 for anything
// else, such as a listed session whose files fail to load.
func sessionStatus(err error) int {
	var invConfig *InvalidConfigError
	var invResult *InvalidResultError
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &invConfig), errors.As(err, &invResult):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) (int, error) {
	resp := httpapi.HealthResponse{Status: "ok", Sessions: s.store.Len()}
	if errs := s.store.JournalErrors(); len(errs) > 0 {
		resp.Status = "degraded"
		resp.JournalErrors = errs
	}
	if c := s.cluster; c != nil && r.URL.Query().Get("scope") != "local" {
		resp.Cluster = c.health(r.Context())
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	return http.StatusOK, nil
}

// decodeBody strictly parses a JSON request body. An empty body
// decodes to the zero value (suggest with all defaults).
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body: all defaults
		}
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// decodeJSON is decodeBody for an already-buffered body.
func decodeJSON(data []byte, dst any) error {
	if len(data) == 0 {
		return nil // empty body: all defaults
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
