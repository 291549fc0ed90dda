package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// daemon is an in-process hiperbotd: a session store behind the real
// HTTP handler on a loopback listener, plus a client for it.
type daemon struct {
	dir    string
	store  *server.Store
	ts     *httptest.Server
	cl     *client.Client
	closed bool
}

// startDaemon opens a store at dir ("" = in-memory) and serves it.
// With a span log the handler and the client transport are traced.
func startDaemon(dir string, cfg server.StoreConfig, tr *spanLog) (*daemon, error) {
	st, err := server.OpenStoreWithConfig(dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var h http.Handler = server.New(st, nil)
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if tr != nil {
		h = traceHandler(h, tr)
		rt = &traceTransport{base: transport, tr: tr}
	}
	ts := httptest.NewServer(h)
	cl, err := client.New(ts.URL, client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute}))
	if err != nil {
		ts.Close()
		st.Close()
		return nil, err
	}
	return &daemon{dir: dir, store: st, ts: ts, cl: cl}, nil
}

// close stops serving and closes the store, keeping its files. A
// second close does nothing.
func (d *daemon) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	d.ts.Close()
	return d.store.Close()
}

// discard closes the daemon and removes its data directory.
func (d *daemon) discard() error {
	err := d.close()
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// httpBackend drives sessions through the typed client over loopback
// HTTP — the path a real worker takes.
type httpBackend struct {
	cl    *client.Client
	sp    *space.Space
	ids   []string
	lease time.Duration
}

func (b *httpBackend) suggest(ctx context.Context, i, k int) ([]space.Config, error) {
	resp, err := b.cl.Suggest(ctx, b.ids[i], k, b.lease)
	if err != nil {
		return nil, err
	}
	out := make([]space.Config, len(resp.Candidates))
	for j, labels := range resp.Candidates {
		if out[j], err = b.sp.FromLabels(labels); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *httpBackend) observe(ctx context.Context, i int, cfgs []space.Config, values []float64) (int, int, error) {
	results := make([]client.Result, len(cfgs))
	for j, c := range cfgs {
		results[j] = client.Result{Config: b.sp.Labels(c), Value: values[j]}
	}
	resp, err := b.cl.Observe(ctx, b.ids[i], results)
	if err != nil {
		return 0, 0, err
	}
	return resp.Added, resp.Evaluations, nil
}

// storeBackend is pass B: it calls Store.WithSession and the session's
// Suggest/ObserveResult directly, skipping HTTP and JSON. The
// store.suggest and store.observe spans time the WithSession call; their
// self time (minus the session.* children) is the store lookup: the pin,
// and the rehydration when the session was evicted.
type storeBackend struct {
	st    *server.Store
	ids   []string
	lease time.Duration
	tr    *spanLog
}

func (b *storeBackend) suggest(_ context.Context, i, k int) ([]space.Config, error) {
	trace := b.tr.newID()
	start := time.Now()
	var out []space.Config
	var t1, t2 time.Time
	err := b.st.WithSession(b.ids[i], func(s *server.Session) error {
		t1 = time.Now()
		picks, _, err := s.Suggest(k, b.lease)
		t2 = time.Now()
		out = picks
		return err
	})
	b.tr.root(passB, "store.suggest", trace, start)
	if !t1.IsZero() {
		b.tr.record(passB, "session.suggest", trace, b.tr.newID(), trace, t1, t2)
	}
	return out, err
}

func (b *storeBackend) observe(_ context.Context, i int, cfgs []space.Config, values []float64) (int, int, error) {
	trace := b.tr.newID()
	start := time.Now()
	added, evals := 0, 0
	err := b.st.WithSession(b.ids[i], func(s *server.Session) error {
		added = 0
		for j, c := range cfgs {
			t := time.Now()
			ok, err := s.ObserveResult(c, values[j], nil)
			b.tr.child(passB, "session.observe", trace, t)
			if err != nil {
				return err
			}
			if ok {
				added++
			}
		}
		evals = s.Snapshot().Evaluations
		return nil
	})
	b.tr.root(passB, "store.observe", trace, start)
	return added, evals, err
}

// coreSession is one pass C session: the ask/tell core under a
// bench-owned mutex standing in for the session lock.
type coreSession struct {
	mu    sync.Mutex
	build func() (*core.Tuner, error)
	at    *core.AskTell      // nil while dropped between rounds
	obs   []core.Observation // history of a dropped session

	keys cacheKeys
}

// cacheKeys mirrors, from outside, the keys under which the TPE model
// caches its fits and the tuner its pool scores, so pass C can tell
// which calls did work.
type cacheKeys struct {
	fitted, fantOK, scoredOK bool
	fitGen                   uint64
	fantGen, fantPen         uint64
	scoredGen, scoredPen     uint64
}

// coreBackend is pass C: core.AskTell called as the session layer
// calls it, with every model fit made explicit. Before each Ask(1) and
// each Importance it calls Model().Fit itself, so the fit inside the
// following call is a cache hit and the fit, acquire and importance
// spans time disjoint work.
type coreBackend struct {
	sessions []*coreSession
	lease    time.Duration
	poolRows int // rows a pool rescore touches (0 for pool-free engines)
	tr       *spanLog
	// publish mirrors the daemon's importance republish after every
	// mutation; the library loop of the paper workload has none.
	publish bool
	// transient drops each session's tuner after its observe and
	// rebuilds it from its observations on the next suggest, as a
	// capped store rehydrates an evicted session.
	transient bool

	rows atomic.Int64 // pool rows scored
}

// hydrate builds s's tuner, replaying the observations it held when it
// was dropped. The caller holds s.mu or owns s.
func (b *coreBackend) hydrate(s *coreSession, trace uint64) error {
	t := time.Now()
	tn, err := s.build()
	b.tr.child(passC, "core.new_tuner", trace, t)
	if err != nil {
		return err
	}
	if len(s.obs) > 0 {
		t = time.Now()
		err := tn.ResumeObs(s.obs)
		b.tr.child(passC, "core.resume", trace, t)
		if err != nil {
			return err
		}
	}
	s.at, s.obs, s.keys = core.NewAskTell(tn), nil, cacheKeys{}
	return nil
}

func (b *coreBackend) suggest(_ context.Context, i, k int) ([]space.Config, error) {
	s := b.sessions[i]
	trace := b.tr.newID()
	start := time.Now()
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		b.tr.root(passC, "core.suggest", trace, start)
	}()
	b.tr.child(passC, "core.lock_wait", trace, start)
	if s.at == nil {
		if err := b.hydrate(s, trace); err != nil {
			return nil, err
		}
	}
	var picks []space.Config
	if s.at.InitialPhase() {
		t := time.Now()
		p, err := s.at.Ask(k, b.lease, t)
		b.tr.child(passC, "core.acquire", trace, t)
		if err != nil {
			return nil, err
		}
		picks = p
	} else {
		for len(picks) < k {
			if err := b.fit(s, trace); err != nil {
				return nil, err
			}
			b.countRows(s)
			t := time.Now()
			p, err := s.at.Ask(1, b.lease, t)
			b.tr.child(passC, "core.acquire", trace, t)
			if err != nil {
				return nil, err
			}
			if len(p) == 0 {
				break
			}
			picks = append(picks, p...)
		}
	}
	return picks, b.republish(s, trace)
}

func (b *coreBackend) observe(_ context.Context, i int, cfgs []space.Config, values []float64) (int, int, error) {
	s := b.sessions[i]
	trace := b.tr.newID()
	start := time.Now()
	defer b.tr.root(passC, "core.observe", trace, start)
	added := 0
	for j, c := range cfgs {
		t := time.Now()
		s.mu.Lock()
		b.tr.child(passC, "core.lock_wait", trace, t)
		t = time.Now()
		ok, err := s.at.Tell(c, values[j])
		b.tr.child(passC, "core.tell", trace, t)
		if err == nil {
			err = b.republish(s, trace)
		}
		s.mu.Unlock()
		if err != nil {
			return added, 0, err
		}
		if ok {
			added++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.at.Tuner().History()
	evals := h.Len()
	if b.transient {
		s.obs = append([]core.Observation(nil), h.Observations()...)
		s.at = nil
	}
	return added, evals, nil
}

// republish mirrors the session's info republish after a mutation: past
// the initial phase it computes parameter importance, which fits the
// model first.
func (b *coreBackend) republish(s *coreSession, trace uint64) error {
	if !b.publish || s.at.InitialPhase() {
		return nil
	}
	if err := b.fit(s, trace); err != nil {
		return err
	}
	t := time.Now()
	_, err := s.at.Tuner().Importance()
	b.tr.child(passC, "core.importance", trace, t)
	return err
}

// fit calls Model().Fit and names its span after the work the TPE
// model's caches imply: core.fit.noop when neither the generation nor
// the pending overlay changed since the last fit, core.fit.fantasy when
// a fantasized surrogate over the pending overlay is rebuilt, and
// core.fit.exact when only the observed history moved.
func (b *coreBackend) fit(s *coreSession, trace uint64) error {
	h := s.at.Tuner().History()
	gen, pen := h.Generation(), h.PendingHash()
	k := &s.keys
	exact := !k.fitted || k.fitGen != gen
	fantasy := pen != 0 && (!k.fantOK || k.fantGen != gen || k.fantPen != pen)
	name := "core.fit.noop"
	switch {
	case fantasy:
		name = "core.fit.fantasy"
	case exact:
		name = "core.fit.exact"
	}
	t := time.Now()
	err := s.at.Tuner().Model().Fit(h)
	b.tr.child(passC, name, trace, t)
	if err != nil {
		return err
	}
	k.fitted, k.fitGen = true, gen
	if pen != 0 {
		k.fantOK, k.fantGen, k.fantPen = true, gen, pen
	}
	return nil
}

// countRows adds a full pool rescore when the next acquisition sees a
// (generation, pending hash) key its score cache does not hold.
func (b *coreBackend) countRows(s *coreSession) {
	h := s.at.Tuner().History()
	gen, pen := h.Generation(), h.PendingHash()
	k := &s.keys
	if k.scoredOK && k.scoredGen == gen && k.scoredPen == pen {
		return
	}
	k.scoredOK, k.scoredGen, k.scoredPen = true, gen, pen
	b.rows.Add(int64(b.poolRows))
}
