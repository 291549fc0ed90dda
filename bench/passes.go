package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// replayLimit bounds a fixed-work replay pass as a multiple of the
// measured pass length, so a stalled pass ends and fails its gate
// instead of hanging the run.
const replayLimit = 6

// traced replays the measured pass through passes A, B and C with the
// same seed and the per-session evaluation counts the untraced pass
// reached, then derives the per-layer metrics from their spans.
func (w *httpWorkload) traced(ctx context.Context, base *passResult) error {
	tr, rep := w.e.spans, w.rep
	targets := append([]int(nil), base.evals...)
	limit := func() time.Time { return time.Now().Add(replayLimit * max(base.wall, time.Second)) }

	start := time.Now()
	dA, err := w.startSessions(ctx, tr)
	if err != nil {
		return err
	}
	resA := drive(ctx, w.plan(targets, limit()), &httpBackend{cl: dA.cl, sp: w.sp, ids: w.names, lease: w.lease})
	if err := dA.discard(); err != nil {
		return err
	}
	rep.timed("pass_a", start)

	start = time.Now()
	dir := w.dataDir()
	st, err := server.OpenStoreWithConfig(dir, w.sz.storeConfig())
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	for i, id := range w.names {
		t := time.Now()
		_, err := st.CreateWithSpace(id, w.sp, nil, w.options(i))
		tr.root(passB, "store.create", tr.newID(), t)
		if err != nil {
			st.Close()
			return fmt.Errorf("create %s: %w", id, err)
		}
	}
	resB := drive(ctx, w.plan(targets, limit()), &storeBackend{st: st, ids: w.names, lease: w.lease, tr: tr})
	if err := st.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	rep.timed("pass_b", start)

	start = time.Now()
	be := &coreBackend{lease: w.lease, poolRows: w.sp.GridSize(), tr: tr, publish: true}
	// A store capped below the session count, visited round-robin,
	// rehydrates every session on every visit; pass C mirrors that by
	// rebuilding each session's tuner from its observations per round.
	be.transient = w.sz.MaxLiveSessions > 0 && w.sz.MaxLiveSessions < w.sz.Sessions
	for i := range w.names {
		s := &coreSession{build: func() (*core.Tuner, error) { return core.NewTuner(w.sp, objective, w.coreOptions(i)) }}
		if !be.transient {
			if err := be.create(s); err != nil {
				return err
			}
		}
		be.sessions = append(be.sessions, s)
	}
	resC := drive(ctx, w.plan(targets, limit()), be)
	rep.timed("pass_c", start)

	spans := tr.all()
	ix := indexSpans(spans)
	clientSuggest := median(ix.durations(passA, "client.suggest"))
	overhead := median(ix.overhead("suggest"))
	lookup := append(ix.self(passB, "store.suggest"), ix.self(passB, "store.observe")...)
	suggestLookup := median(ix.self(passB, "store.suggest"))
	sessionSuggest := median(ix.durations(passB, "session.suggest"))
	lockWait := ix.durations(passC, "core.lock_wait")

	rep.add("client.suggest_overhead_ms_p50", overhead, "ms")
	rep.add("client.observe_overhead_ms_p50", median(ix.overhead("observe")), "ms")
	rep.add("server.suggest_ms_p50", median(ix.durations(passA, "server.suggest")), "ms")
	rep.add("server.observe_ms_p50", median(ix.durations(passA, "server.observe")), "ms")
	rep.add("server.create_ms_p50", median(ix.durations(passA, "server.create")), "ms")
	rep.add("server.non2xx", float64(ix.suffixed(passA, ".non2xx")), "count")
	rep.add("server.store_lookup_ms_p50", quantile(lookup, 0.50), "ms")
	rep.add("server.store_lookup_ms_p99", quantile(lookup, 0.99), "ms")
	rep.add("server.store_create_ms_p50", median(ix.durations(passB, "store.create")), "ms")
	rep.add("server.session_suggest_ms_p50", sessionSuggest, "ms")
	rep.add("server.session_observe_ms_p50", median(ix.durations(passB, "session.observe")), "ms")
	rep.add("server.session_lock_wait_ms_p50", quantile(lockWait, 0.50), "ms")
	rep.add("server.session_lock_wait_ms_p99", quantile(lockWait, 0.99), "ms")
	coreLayers(rep, ix, resC.added, be.rows.Load())
	rep.add("trace.overhead_ratio", resA.wall.Seconds()/base.wall.Seconds(), "ratio")
	rep.add("trace.client_suggest_ms_p50", clientSuggest, "ms")
	rep.add("trace.unattributed_ms_p50", clientSuggest-(overhead+suggestLookup+sessionSuggest), "ms")

	rep.check(nesting(spans))
	for _, p := range []struct {
		name string
		res  *passResult
	}{{passA, resA}, {passB, resB}, {passC, resC}} {
		rep.check("pass_"+strings.ToLower(p.name)+"_replays", replayed(p.res, targets) && p.res.failed == 0 && p.res.dups == 0,
			fmt.Sprintf("%d evaluations of %d, %d failed, %d repeated", p.res.added, base.added, p.res.failed, p.res.dups))
		if base.seqs != nil {
			rep.check("pass_"+strings.ToLower(p.name)+"_matches_untraced", sameSeqs(base.seqs, p.res.seqs), "suggestion sequences of every session")
		}
	}
	return nil
}

// coreLayers adds the per-layer metrics of pass C's core spans.
func coreLayers(rep *report, ix *spanIndex, evals, rows int64) {
	fits := ix.durations(passC, "core.fit.exact", "core.fit.fantasy")
	noops := ix.count(passC, "core.fit.noop")
	acquire := ix.durations(passC, "core.acquire")
	per := float64(max(evals, 1))
	rep.add("core.new_tuner_ms_p50", median(ix.durations(passC, "core.new_tuner")), "ms")
	rep.add("core.fit_ms_p50", quantile(fits, 0.50), "ms")
	rep.add("core.fit_ms_p99", quantile(fits, 0.99), "ms")
	rep.add("core.fit_fantasy_per_eval", float64(ix.count(passC, "core.fit.fantasy"))/per, "count")
	rep.add("core.fit_noop_ratio", ratio(int64(noops), int64(noops+len(fits))), "ratio")
	rep.add("core.acquire_ms_p50", quantile(acquire, 0.50), "ms")
	rep.add("core.acquire_ms_p99", quantile(acquire, 0.99), "ms")
	rep.add("core.rows_scored_per_eval", float64(rows)/per, "count")
	rep.add("core.tell_ms_p50", median(ix.durations(passC, "core.tell")), "ms")
	rep.add("core.importance_ms_p50", median(ix.durations(passC, "core.importance")), "ms")
}

// create builds a session's tuner ahead of traffic, under a
// core.create root span.
func (b *coreBackend) create(s *coreSession) error {
	trace := b.tr.newID()
	start := time.Now()
	err := b.hydrate(s, trace)
	b.tr.root(passC, "core.create", trace, start)
	return err
}

func replayed(res *passResult, targets []int) bool {
	for i, t := range targets {
		if res.evals[i] < t {
			return false
		}
	}
	return true
}

func sameSeqs(a, b [][]space.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// nesting is the gate form of checkNesting.
func nesting(spans []span) (string, bool, string) {
	if err := checkNesting(spans); err != nil {
		return "trace_spans_nest", false, err.Error()
	}
	return "trace_spans_nest", true, fmt.Sprintf("%d spans", len(spans))
}
