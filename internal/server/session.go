package server

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/objective"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Session is one named tuning campaign hosted by the daemon: a Tuner
// wrapped in lease bookkeeping (core.AskTell), guarded by a per-session
// mutex so suggest/observe calls from many workers interleave safely,
// and journaled to a JSONL file so a restarted daemon resumes it
// without losing evaluations.
//
// Mutations (Suggest, Observe) take the lock and republish an
// immutable info snapshot on the way out, while readers (Info, List,
// /metrics) serve the snapshot lock-free — a status poll never
// serializes behind a long-running model-guided suggest. Journal
// appends go through a journalSink with its own mutex, so a slow disk
// flush doesn't hold the session lock either.
//
// A Session is the same object from create to delete. Eviction, under
// the lock, compacts it to its snapshot, drops its tuner and closes its
// journal; the next call that needs the tuner rehydrates it in place,
// keeping its space, options, recorder and sink.
type Session struct {
	id        string
	sp        *space.Space
	opts      httpapi.SessionOptions
	objs      objective.Set // zero value: legacy single-objective (minimize Value)
	created   time.Time
	store     *Store          // owning store (compaction config/paths); nil in tests that build sessions directly
	spaceJSON json.RawMessage // journaled space document, reused by snapshot/tail headers

	mu sync.Mutex
	at *core.AskTell // nil while evicted or once deleted
	// deleted is set once, under mu, by Delete or a failed create;
	// calls on the session then return ErrNotFound.
	deleted bool

	// Snapshot-compaction state (under mu). snapBase counts the events
	// covered by the on-disk snapshot; the journal holds the rest.
	snapBase    int
	snapSize    int64
	snapAt      time.Time
	compactedAt int // evaluation count at the last compaction attempt (retry damper)

	// lastAccess orders sessions for LRU eviction; bumped lock-free on
	// every store lookup and rehydration.
	lastAccess atomic.Int64

	// rec and sink are set once at construction and never replaced —
	// the sink reopens its file in place — so JournalErr may read them
	// without the session lock (both carry their own mutexes). Nil for
	// in-memory stores.
	rec  *core.Recorder
	sink *journalSink

	snap atomic.Pointer[httpapi.SessionInfo]
}

// touch records an access for LRU ordering.
func (s *Session) touch() { s.lastAccess.Store(time.Now().UnixNano()) }

// hydrateLocked makes the session's tuner resident, rehydrating an
// evicted session in place. A deleted session reports ErrNotFound.
// Callers hold s.mu.
func (s *Session) hydrateLocked() error {
	switch {
	case s.deleted:
		return fmt.Errorf("%w: %s", ErrNotFound, s.id)
	case s.at == nil:
		return s.store.rehydrateLocked(s)
	}
	return nil
}

// newAskTell builds a fresh tuner for the session's space and options
// that journals every tell through the session's recorder. The
// objective lives on the workers' side of the wire; the tuner is only
// ever driven through Ask/Tell, never Step/Run.
func (s *Session) newAskTell() (*core.AskTell, error) {
	opts, err := TunerOptions(s.opts)
	if err != nil {
		return nil, err
	}
	if s.rec != nil {
		opts.OnStep = s.rec.OnStep
	}
	t, err := core.NewTuner(s.sp, func(space.Config) float64 {
		panic("server: remote session objective must not be called")
	}, opts)
	if err != nil {
		return nil, err
	}
	return core.NewAskTell(t), nil
}

// header is the session's journal header for a file whose first event
// is observation base+1.
func (s *Session) header(base int) journalHeader {
	created := s.created.UTC().Format(time.RFC3339)
	return journalHeader{ID: s.id, Space: s.spaceJSON, Options: s.opts, CreatedAt: created, Base: base}
}

// writeHeaderLocked opens a new session's journal and writes its
// create header, durable before the create returns — group commit only
// ever defers events, never the session's existence. A failed write
// leaves no journal behind. No-op for in-memory stores. The caller
// holds s.mu.
func (s *Session) writeHeaderLocked() error {
	if s.sink == nil {
		return nil
	}
	path := s.store.journalPath(s.id)
	if err := s.sink.open(path); err != nil {
		return err
	}
	err := writeHeader(s.sink, s.header(0))
	if err == nil {
		err = s.sink.Flush(s.store.cfg.Fsync != FsyncNever)
	}
	if err != nil {
		s.sink.Close()
		os.Remove(path)
	}
	return err
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Space returns the session's parameter space.
func (s *Session) Space() *space.Space { return s.sp }

// Suggest leases up to k candidates for evaluation. ttl bounds the
// lease; ttl <= 0 leases forever.
func (s *Session) Suggest(k int, ttl time.Duration) ([]space.Config, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hydrateLocked(); err != nil {
		return nil, "", err
	}
	now := time.Now()
	phase := phaseName(s.at.InitialPhase())
	picks, err := s.at.Ask(k, ttl, now)
	if err != nil {
		return nil, phase, err
	}
	s.publishLocked(now)
	return picks, phase, nil
}

// Renew extends the leases on the given configurations from now. The
// second return lists configs that were no longer leased (expired and
// returned to the pool, possibly already re-suggested elsewhere); the
// caller should abandon those evaluations. ttl <= 0 renews forever.
func (s *Session) Renew(configs []space.Config, ttl time.Duration) (renewed int, lost []space.Config, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hydrateLocked(); err != nil {
		return 0, nil, err
	}
	now := time.Now()
	renewed, lost = s.at.Renew(configs, ttl, now)
	s.publishLocked(now)
	return renewed, lost, nil
}

// Observe validates and folds in one evaluated result. Configurations
// already in the history are idempotent duplicates (added=false, no
// error); invalid configurations return an *InvalidConfigError. A
// sticky journal error surfaces here (and on /healthz) even when the
// failed write happened on an earlier call or an asynchronous flush.
func (s *Session) Observe(c space.Config, value float64) (added bool, err error) {
	return s.ObserveResult(c, value, nil)
}

// ObserveResult is Observe with named metrics. On a session created
// with objectives, the canonical objective vector is derived from
// (value, metrics) — nil metrics fall back to value for every
// objective, the legacy-client contract — and the history Value
// becomes the equal-weight scalarization, which scalar engines
// minimize directly. Non-finite values or metrics, and a non-nil
// metrics map missing an objective's key, return an
// *InvalidResultError (HTTP 400).
func (s *Session) ObserveResult(c space.Config, value float64, metrics map[string]float64) (added bool, err error) {
	if err := s.checkValid(c); err != nil {
		return false, err
	}
	if err := checkFinite(value, metrics); err != nil {
		return false, err
	}
	obs := core.Observation{Config: c, Value: value, Metrics: metrics}
	if s.objs.Len() > 0 {
		vec, verr := s.objs.Vector(value, metrics)
		if verr != nil {
			return false, &InvalidResultError{Reason: verr}
		}
		obs.Objectives = vec
		obs.Value = s.objs.Scalarize(vec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hydrateLocked(); err != nil {
		return false, err
	}
	added, err = s.at.TellObs(obs)
	if err != nil {
		return false, err
	}
	s.maybeCompactLocked(time.Now())
	s.publishLocked(time.Now())
	if jerr := s.JournalErr(); jerr != nil {
		return added, fmt.Errorf("server: journal write failed: %w", jerr)
	}
	return added, nil
}

// maybeCompactLocked snapshots the session and truncates its journal
// to a tail once the tail outgrows the store's event or byte
// threshold. Compaction failures are logged, never surfaced to the
// observe that tripped the threshold: the journal is still intact, so
// nothing is lost, and the next observation retries.
func (s *Session) maybeCompactLocked(now time.Time) {
	st := s.store
	if st == nil || s.sink == nil || (st.cfg.SnapshotEvents <= 0 && st.cfg.SnapshotBytes <= 0) {
		return
	}
	n := s.at.Tuner().Evaluations()
	tailEvents := n - s.snapBase
	if tailEvents <= 0 || n <= s.compactedAt {
		return
	}
	byEvents := st.cfg.SnapshotEvents > 0 && tailEvents >= st.cfg.SnapshotEvents
	byBytes := st.cfg.SnapshotBytes > 0 && s.sink.Written() >= int64(st.cfg.SnapshotBytes)
	if !byEvents && !byBytes {
		return
	}
	if err := s.compactLocked(now); err != nil {
		s.compactedAt = n // damp retries to one per new observation
		st.logf("hiperbotd: session %s: snapshot compaction failed (will retry): %v", s.id, err)
	}
}

// compactLocked writes the snapshot and swaps the journal for a fresh
// tail. Callers hold the write lock. The protocol is crash-ordered:
// the snapshot is durable (tmp + fsync + rename + dir sync) before
// the journal is touched, and the journal rewrite is itself atomic,
// so a kill -9 at any point leaves a resumable pair (see journal.go's
// loadSessionState for the reconciliation).
func (s *Session) compactLocked(now time.Time) error {
	st := s.store
	if st == nil || st.dir == "" || s.sink == nil {
		return fmt.Errorf("server: session %s has no journal to compact", s.id)
	}
	t := s.at.Tuner()
	n := t.Evaluations()
	s.compactedAt = n
	if n == s.snapBase {
		return nil // snapshot already covers everything
	}
	// Drain buffered appends to the old journal first: the snapshot
	// below captures them, but flushing keeps the old journal complete
	// for the crash window before the snapshot rename lands.
	if err := s.sink.Flush(false); err != nil {
		return err
	}
	hdr := s.header(n)
	size, err := writeSnapshotFile(st.snapshotPath(s.id), hdr, t.History())
	if err != nil {
		return err
	}
	// Fresh tail: header-only journal written beside the live one,
	// fsynced, renamed over it. The tmp fd survives the rename and
	// becomes the sink's append target.
	jpath := st.journalPath(s.id)
	f, err := os.OpenFile(jpath+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeHeader(f, hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(jpath + ".tmp")
		return err
	}
	if err := os.Rename(jpath+".tmp", jpath); err != nil {
		f.Close()
		os.Remove(jpath + ".tmp")
		return err
	}
	syncDir(st.dir)
	if err := s.sink.swap(f); err != nil {
		return err
	}
	s.snapBase = n
	s.snapSize = size
	s.snapAt = now
	st.compactions.Add(1)
	return nil
}

// checkFinite rejects NaN and ±Inf observations: they would poison
// best-so-far tracking, quantile splits, and Pareto ranking, and a
// journal replay could not round-trip them through JSON.
func checkFinite(value float64, metrics map[string]float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return &InvalidResultError{Reason: fmt.Errorf("server: observation value %v is not finite", value)}
	}
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &InvalidResultError{Reason: fmt.Errorf("server: observation metric %q = %v is not finite", k, v)}
		}
	}
	return nil
}

// JournalErr returns the first journal write error, if any — from the
// Recorder's encoder or from the sink's asynchronous flushes. Safe to
// call without the session lock.
func (s *Session) JournalErr() error {
	if s.rec != nil {
		if err := s.rec.Err(); err != nil {
			return err
		}
	}
	if s.sink != nil {
		return s.sink.Err()
	}
	return nil
}

// InvalidConfigError marks a structurally invalid or
// constraint-violating configuration; the HTTP layer maps it to 400.
type InvalidConfigError struct{ Reason error }

// Error implements error.
func (e *InvalidConfigError) Error() string { return e.Reason.Error() }

// Unwrap exposes the underlying cause.
func (e *InvalidConfigError) Unwrap() error { return e.Reason }

// InvalidResultError marks a malformed result payload — a non-finite
// value or metric, or a metrics map missing a key the session's
// objectives read; the HTTP layer maps it to 400.
type InvalidResultError struct{ Reason error }

// Error implements error.
func (e *InvalidResultError) Error() string { return e.Reason.Error() }

// Unwrap exposes the underlying cause.
func (e *InvalidResultError) Unwrap() error { return e.Reason }

// checkValid enforces both structural validity and the space's
// constraint predicate. Spaces decoded from JSON are always
// unconstrained (constraints are code, not data — see
// hiperbot.LoadSpace), so for HTTP-created sessions only the
// structural check can fire; embedded stores with constrained spaces
// get the full check.
func (s *Session) checkValid(c space.Config) error {
	if err := s.sp.Check(c); err != nil {
		return &InvalidConfigError{Reason: err}
	}
	if !s.sp.Valid(c) {
		return &InvalidConfigError{Reason: fmt.Errorf(
			"space: configuration %s violates the space constraint (constraints are not part of Space JSON; re-impose them when embedding the store)",
			s.sp.Describe(c))}
	}
	return nil
}

// Info reports the session's progress. It never blocks behind a
// running Suggest or Observe: when the session lock is free it is
// taken briefly to refresh the snapshot (importance comes from the
// generation-cached fit, so a poll between evaluations does no model
// work); when a mutation holds the lock, the last published snapshot
// is served as-is — at worst one mutation stale. An evicted session
// serves the info it published at eviction and is not rehydrated.
func (s *Session) Info() httpapi.SessionInfo {
	if s.mu.TryLock() {
		defer s.mu.Unlock()
		if s.at != nil {
			s.publishLocked(time.Now())
		}
	}
	return *s.snap.Load()
}

// Snapshot returns the last published info without touching the
// session lock or the model at all (Evaluations/Best for /metrics and
// observe responses).
func (s *Session) Snapshot() httpapi.SessionInfo { return *s.snap.Load() }

// publishBasicLocked publishes an info snapshot without the model-fit
// extras (Importance, Pareto front) — the resume/rehydration path,
// where refitting a surrogate per session would turn an O(snapshot)
// restart into an O(model) one. The next Info() or mutation
// republishes the full snapshot.
func (s *Session) publishBasicLocked(now time.Time) {
	s.snap.Store(s.baseInfoLocked(now))
}

// baseInfoLocked builds the cheap (no model refit) part of the info
// snapshot shared by both publish paths.
func (s *Session) baseInfoLocked(now time.Time) *httpapi.SessionInfo {
	t := s.at.Tuner()
	info := &httpapi.SessionInfo{
		ID:             s.id,
		Evaluations:    t.Evaluations(),
		InitialSamples: t.InitialSamples(),
		Phase:          phaseName(s.at.InitialPhase()),
		Strategy:       t.EngineName(),
		ActiveLeases:   s.at.Leases(now),
		CreatedAt:      s.created.UTC().Format(time.RFC3339),

		DuplicateSuggestions: s.at.DuplicateSuggestions(),
		PoolExhaustedRetries: t.PoolExhaustedRetries(),
	}
	if s.snapBase > 0 {
		info.SnapshotEvents = s.snapBase
		info.SnapshotBytes = s.snapSize
		info.SnapshotAgeSeconds = now.Sub(s.snapAt).Seconds()
		info.JournalTailEvents = t.Evaluations() - s.snapBase
	}
	if t.Evaluations() > 0 {
		best := t.Best()
		info.Best = &httpapi.Result{Config: s.sp.Labels(best.Config), Value: best.Value}
	}
	if s.objs.Len() > 0 {
		info.Objectives = s.objs.Names()
	}
	return info
}

// publishLocked rebuilds and stores the lock-free info snapshot.
// Callers hold the write lock (or exclusive ownership during
// construction): Importance refits the engine's model, which mutates
// tuner-owned state. The snapshot and its slices are immutable once
// published; readers must not modify them.
func (s *Session) publishLocked(now time.Time) {
	t := s.at.Tuner()
	info := s.baseInfoLocked(now)
	if s.objs.Multi() && t.Evaluations() > 0 {
		info.ParetoFront = s.frontLocked(t)
	}
	if !s.at.InitialPhase() {
		if raw, err := t.Importance(); err == nil && raw != nil {
			info.Importance = importanceEntries(s.sp, raw)
		}
	}
	s.snap.Store(info)
}

// Marginals fits the session's model on the current history and
// returns per-parameter marginal reports sorted by descending
// importance — the GET /v1/sessions/{id}/importance payload. It
// returns nil (no error) while the session is still in its initial
// phase or when the engine's model defines no marginals (e.g.
// "random"). It takes the write lock: the fit mutates tuner-owned
// state, though the generation cache makes repeat calls between
// evaluations free.
func (s *Session) Marginals() ([]httpapi.MarginalReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hydrateLocked(); err != nil {
		return nil, err
	}
	if s.at.InitialPhase() {
		return nil, nil
	}
	t := s.at.Tuner()
	// Importance fits the model (generation-cached); its scores are
	// folded into each report by Marginals itself.
	if _, err := t.Importance(); err != nil {
		return nil, err
	}
	m, ok := t.Model().(core.Marginaler)
	if !ok {
		return nil, nil
	}
	reports := m.Marginals()
	out := make([]httpapi.MarginalReport, len(reports))
	for i, r := range reports {
		wire := httpapi.MarginalReport{
			Param:      r.Param,
			Importance: r.Importance,
			GoodPeak:   r.GoodPeak,
		}
		for _, l := range r.Levels {
			wire.Levels = append(wire.Levels, httpapi.MarginalLevel{
				Label: l.Label, Good: l.Good, Bad: l.Bad, Lift: l.Lift,
			})
		}
		out[i] = wire
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Importance > out[b].Importance })
	return out, nil
}

// frontLocked renders the current nondominated set as wire Results, in
// history order. O(n²·m) in the evaluation count — evaluations are
// assumed expensive (seconds to hours), so n stays small and the scan
// is noise next to one suggest. Metrics maps are shared with the
// stored observations; snapshots are immutable by contract.
func (s *Session) frontLocked(t *core.Tuner) []httpapi.Result {
	h := t.History()
	front := objective.HistoryFront(h)
	out := make([]httpapi.Result, len(front))
	for i, idx := range front {
		o := h.At(idx)
		out[i] = httpapi.Result{
			Config:  s.sp.Labels(o.Config),
			Value:   o.Value,
			Metrics: o.Metrics,
		}
	}
	return out
}

// importanceEntries ranks parameters by importance score, descending,
// with ties kept in declaration order.
func importanceEntries(sp *space.Space, raw []float64) []httpapi.ImportanceEntry {
	order := make([]int, len(raw))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return raw[order[a]] > raw[order[b]] })
	out := make([]httpapi.ImportanceEntry, len(order))
	for rank, i := range order {
		out[rank] = httpapi.ImportanceEntry{Param: sp.Param(i).Name, Score: raw[i]}
	}
	return out
}

// close flushes and releases the journal. Idempotent.
func (s *Session) close() error {
	if s.sink == nil {
		return nil
	}
	return s.sink.Close()
}

func phaseName(initial bool) string {
	if initial {
		return "initial"
	}
	return "model"
}
