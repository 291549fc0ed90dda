package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/objective"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// storeShards is the number of lock stripes over the session map.
// Sixteen keeps unrelated sessions' create/get/delete traffic off
// each other's locks without measurable memory cost; lookups hash the
// session id (FNV-1a) to a stripe.
const storeShards = 16

type storeShard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	// stubs index evicted sessions: compacted to snapshot, engine and
	// history dropped from memory, only the id and the last published
	// info retained. Any Suggest/Observe/Info on a stub rehydrates the
	// session from snapshot + journal tail on demand.
	stubs map[string]*stub
}

// stub is the in-memory remnant of an evicted session. Its mutex
// single-flights rehydration: concurrent requests for the same
// evicted session rebuild it exactly once, the rest wait and reuse.
type stub struct {
	id   string
	info *httpapi.SessionInfo // last published info (Evicted=true), served by List
	mu   sync.Mutex
}

// StoreConfig tunes the store's journaling behavior. The zero value
// reproduces the legacy semantics: every append is written through to
// the file immediately and never fsync'd.
type StoreConfig struct {
	// Fsync selects journal durability; "" means FsyncNever.
	Fsync FsyncPolicy
	// FlushInterval is the group-commit flusher period; <= 0 picks
	// 100ms. Only meaningful when buffering or interval-syncing.
	FlushInterval time.Duration
	// FlushBytes is the per-session buffered-byte threshold that
	// forces a flush between ticks; 0 disables buffering entirely
	// (write-through appends, as before group commit).
	FlushBytes int
	// DefaultPoolCap is applied to sessions created without an
	// explicit pool_cap (see httpapi.SessionOptions.PoolCap). The
	// effective value is resolved at create time and journaled in the
	// session header, so later restarts with a different default do
	// not change resumed sessions.
	DefaultPoolCap int
	// DefaultObjectives is applied to sessions created without
	// explicit objectives. Like DefaultPoolCap it is resolved at
	// create time and journaled in the session header, so restarts
	// with a different default do not change resumed sessions.
	DefaultObjectives []string
	// DefaultLiar is the constant-liar policy ("min", "mean", "max")
	// applied to sessions created without an explicit liar option.
	// Like the other defaults it is resolved at create time and
	// journaled in the session header.
	DefaultLiar string
	// SnapshotEvents compacts a session (snapshot + truncate the
	// journal to a tail) once its journal tail holds this many events;
	// 0 disables the event trigger.
	SnapshotEvents int
	// SnapshotBytes compacts once the journal file reaches this many
	// bytes; 0 disables the byte trigger. With both triggers zero,
	// journals grow without bound (the legacy behavior).
	SnapshotBytes int
	// MaxLiveSessions caps how many sessions are kept hydrated in
	// memory; beyond it the least-recently-used idle sessions are
	// compacted to snapshot and evicted to stubs, rehydrating on
	// demand. 0 means unlimited. Ignored for in-memory stores (no
	// snapshot to rehydrate from).
	MaxLiveSessions int
	// Logf receives operational warnings (torn journal lines dropped,
	// eviction/compaction failures). Nil discards them.
	Logf func(format string, args ...any)
}

// Store owns the daemon's sessions: creation, lookup, deletion, and
// durability. With a data directory every session is journaled and
// OpenStore resumes all of them after a restart; with an empty
// directory the store is purely in-memory (tests, examples). The
// session map is lock-striped (storeShards shards keyed by id) so
// session CRUD from many workers never funnels through one mutex.
type Store struct {
	dir  string
	cfg  StoreConfig
	logf func(format string, args ...any)

	shards [storeShards]storeShard

	// evictMu serializes cap-enforcement sweeps so concurrent creates
	// and rehydrations don't race to evict the same victims.
	evictMu sync.Mutex

	evictions    atomic.Int64
	rehydrations atomic.Int64
	compactions  atomic.Int64

	flushStop chan struct{} // non-nil iff the flusher goroutine runs
	flushDone chan struct{}
	stopOnce  sync.Once
}

// ErrNotFound reports an unknown session id.
var ErrNotFound = fmt.Errorf("server: no such session")

// ErrExists reports a session-id collision on create.
var ErrExists = fmt.Errorf("server: session already exists")

var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// validID reports whether name is an acceptable session name. "." and
// ".." match idPattern but are path segments the mux cleans away, so
// no session route could ever reach them.
func validID(name string) bool {
	return idPattern.MatchString(name) && name != "." && name != ".."
}

// OpenStore opens (creating if needed) a session store rooted at dir
// and resumes every journaled session found there. dir == "" yields a
// volatile in-memory store. Journal appends are written through
// immediately (no group commit, no fsync — the zero StoreConfig); use
// OpenStoreWithConfig to enable group-committed journaling.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWithConfig(dir, StoreConfig{})
}

// OpenStoreWithConfig is OpenStore with explicit journaling behavior.
func OpenStoreWithConfig(dir string, cfg StoreConfig) (*Store, error) {
	policy, err := ParseFsyncPolicy(string(cfg.Fsync))
	if err != nil {
		return nil, err
	}
	cfg.Fsync = policy
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 100 * time.Millisecond
	}
	st := &Store{dir: dir, cfg: cfg, logf: cfg.Logf}
	if st.logf == nil {
		st.logf = func(string, ...any) {}
	}
	for i := range st.shards {
		st.shards[i].sessions = make(map[string]*Session)
		st.shards[i].stubs = make(map[string]*stub)
	}
	if dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// A crash mid-compaction can leave pre-rename temp files behind;
	// they are by construction not the durable copy of anything.
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	// Resume every session: one per journal, plus any snapshot whose
	// tail journal vanished (crash between snapshot and rewrite).
	ids := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".jsonl"):
			ids[strings.TrimSuffix(e.Name(), ".jsonl")] = true
		case strings.HasSuffix(e.Name(), ".snap"):
			ids[strings.TrimSuffix(e.Name(), ".snap")] = true
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		if err := st.resume(id); err != nil {
			return nil, fmt.Errorf("server: resuming %s: %w", id, err)
		}
	}
	if cfg.FlushBytes > 0 || cfg.Fsync == FsyncInterval {
		st.flushStop = make(chan struct{})
		st.flushDone = make(chan struct{})
		go st.flushLoop()
	}
	return st, nil
}

// shard maps a session id to its lock stripe (FNV-1a).
func (st *Store) shard(id string) *storeShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &st.shards[h%storeShards]
}

// flushLoop is the group-commit ticker: every FlushInterval it drains
// all buffered journal appends (and fsyncs under FsyncInterval).
func (st *Store) flushLoop() {
	defer close(st.flushDone)
	t := time.NewTicker(st.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-st.flushStop:
			return
		case <-t.C:
			st.Flush()
		}
	}
}

// Flush drains every session's buffered journal appends to disk,
// fsyncing under the interval and always policies. It never takes a
// session lock, so in-flight suggest/observe calls are not blocked.
func (st *Store) Flush() error {
	sync := st.cfg.Fsync != FsyncNever
	var first error
	for _, s := range st.all() {
		if s.sink == nil {
			continue
		}
		if err := s.sink.Flush(sync); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// all snapshots the live sessions across every shard, unsorted.
func (st *Store) all() []*Session {
	var out []*Session
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// resume rebuilds one session from its snapshot + journal tail. Only
// called from OpenStoreWithConfig, before the store is shared. A
// garbled journal with no snapshot behind it is set aside (renamed
// *.corrupt) with a warning instead of failing the whole store open.
func (st *Store) resume(id string) error {
	sess, err := st.loadSession(id)
	if errors.Is(err, errUnresumable) {
		jpath := st.journalPath(id)
		corrupt := jpath + ".corrupt"
		if rerr := os.Rename(jpath, corrupt); rerr == nil {
			st.logf("hiperbotd: journal for %s has no intact header and no snapshot; moved to %s", id, corrupt)
		}
		return nil
	}
	if err != nil {
		return err
	}
	sess.touch()
	sh := st.shard(sess.id)
	sh.mu.Lock()
	sh.sessions[sess.id] = sess
	sh.mu.Unlock()
	st.enforceCap()
	return nil
}

// loadSession rebuilds a session from disk — the shared path of boot
// resume and on-demand rehydration. It repairs crash signatures
// first (torn tail truncated, missing tail rewritten from snapshot),
// then replays snapshot + tail into a fresh tuner.
func (st *Store) loadSession(id string) (*Session, error) {
	stt, err := st.loadSessionState(id)
	if err != nil {
		return nil, err
	}
	jpath := st.journalPath(id)
	if stt.truncateTo >= 0 {
		if err := os.Truncate(jpath, stt.truncateTo); err != nil {
			return nil, fmt.Errorf("server: truncating torn journal %s: %w", jpath, err)
		}
	}
	if stt.rebuild {
		var buf bytes.Buffer
		if err := writeHeader(&buf, stt.hdr); err != nil {
			return nil, err
		}
		if err := atomicWriteFile(jpath, buf.Bytes()); err != nil {
			return nil, fmt.Errorf("server: rebuilding journal tail %s: %w", jpath, err)
		}
	}
	created := time.Now()
	if t, err := time.Parse(time.RFC3339, stt.hdr.CreatedAt); err == nil {
		created = t
	}
	opts := stt.hdr.Options
	if opts.ProposalCandidates < 0 {
		// Creation used to accept a negative proposal_candidates, which
		// drew nothing from pg: resume such a header with the alias
		// unset rather than fail the boot.
		opts.ProposalCandidates = 0
	}
	sess, err := st.newSession(stt.hdr.ID, stt.sp, opts, created, jpath, false, stt.hdr.Space)
	if err != nil {
		return nil, err
	}
	if len(stt.obs) > 0 {
		if err := sess.at.Tuner().ResumeObs(stt.obs); err != nil {
			sess.close()
			return nil, err
		}
	}
	sess.snapBase = stt.snapEvents
	sess.snapSize = stt.snapSize
	sess.snapAt = stt.snapAt
	// Cheap publish: refitting Importance (and the O(n²) Pareto scan)
	// per session here would make a many-session boot O(model fits)
	// instead of O(snapshot bytes). The first Info() fills them in.
	sess.publishBasicLocked(time.Now())
	return sess, nil
}

// Create builds a new session from a serialized space. name == ""
// generates an id.
func (st *Store) Create(name string, spaceJSON json.RawMessage, opts httpapi.SessionOptions) (*Session, error) {
	sp, err := space.SpaceFromJSON(spaceJSON)
	if err != nil {
		return nil, err
	}
	return st.CreateWithSpace(name, sp, spaceJSON, opts)
}

// CreateWithSpace builds a new session from an in-process Space —
// the embedding path, which (unlike Create) may carry a constraint
// predicate. spaceJSON is what the journal records; when nil it is
// derived from sp.
func (st *Store) CreateWithSpace(name string, sp *space.Space, spaceJSON json.RawMessage, opts httpapi.SessionOptions) (*Session, error) {
	if spaceJSON == nil {
		var err error
		spaceJSON, err = json.Marshal(sp)
		if err != nil {
			return nil, err
		}
	}
	if name != "" && !validID(name) {
		return nil, fmt.Errorf("server: invalid session name %q (want %s, not . or ..)", name, idPattern)
	}
	if opts.PoolCap == 0 {
		// Resolve the store default now so the journal header records
		// the effective cap; resume replays the header verbatim.
		opts.PoolCap = st.cfg.DefaultPoolCap
	}
	if len(opts.Objectives) == 0 {
		opts.Objectives = st.cfg.DefaultObjectives
	}
	if opts.Liar == "" {
		opts.Liar = st.cfg.DefaultLiar
	}
	if len(opts.Objectives) > 1 && opts.Strategy == "" {
		// Multi-objective sessions default to the Pareto-split engine;
		// resolved here so the journal header records the effective
		// strategy and an explicit choice (any scalar engine on the
		// scalarized value) is never overridden.
		opts.Strategy = "motpe"
	}
	if err := checkCountBounds(opts); err != nil {
		return nil, err
	}
	id := name
	if id == "" {
		id = newID()
	}
	sh := st.shard(id)
	sh.mu.Lock()
	_, dupLive := sh.sessions[id]
	_, dupStub := sh.stubs[id]
	if dupLive || dupStub {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	created := time.Now()
	path := ""
	if st.dir != "" {
		path = st.journalPath(id)
	}
	sess, err := st.newSession(id, sp, opts, created, path, true, spaceJSON)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	sess.touch()
	sh.sessions[id] = sess
	sh.mu.Unlock()
	st.enforceCap()
	return sess, nil
}

// newSession wires tuner, leases, and journal together. fresh writes
// the create header; resume paths skip it (already on disk).
func (st *Store) newSession(id string, sp *space.Space, opts httpapi.SessionOptions, created time.Time, journalPath string, fresh bool, spaceJSON json.RawMessage) (*Session, error) {
	coreOpts, err := coreOptions(opts)
	if err != nil {
		return nil, err
	}
	// Objective specs are validated before the journal header is
	// written, so a bad spec fails creation with 400 and never leaves
	// a journal the next boot cannot resume.
	objs, err := objective.ParseSet(opts.Objectives)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Group specs are likewise validated against the space before the
	// journal header is written: an unknown or repeated parameter name
	// fails creation with 400 and never leaves an unresumable journal.
	if err := core.ValidateGroups(sp, opts.Groups); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	sess := &Session{id: id, sp: sp, opts: opts, objs: objs, created: created, store: st, spaceJSON: spaceJSON}
	if journalPath != "" {
		f, err := openJournal(journalPath)
		if err != nil {
			return nil, err
		}
		sink := newJournalSink(f, st.cfg.FlushBytes, st.cfg.Fsync)
		if fresh {
			// The create header is durable before the create returns —
			// group commit only ever defers events, never the session's
			// existence.
			err := writeHeader(sink, journalHeader{
				ID:        id,
				Space:     spaceJSON,
				Options:   opts,
				CreatedAt: created.UTC().Format(time.RFC3339),
			})
			if err == nil {
				err = sink.Flush(st.cfg.Fsync != FsyncNever)
			}
			if err != nil {
				sink.Close()
				os.Remove(journalPath)
				return nil, err
			}
		}
		sess.sink = sink
		sess.rec = core.NewRecorder(sink, sp)
		coreOpts.OnStep = sess.rec.OnStep
	}
	// The objective lives on the workers' side of the wire; the tuner
	// is only ever driven through Ask/Tell, never Step/Run.
	t, err := core.NewTuner(sp, func(space.Config) float64 {
		panic("server: remote session objective must not be called")
	}, coreOpts)
	if err != nil {
		if sess.sink != nil {
			sess.sink.Close()
			if fresh {
				// The session never existed: leaving its header-only
				// journal behind would poison the next boot's resume
				// scan (the store fails fast on journals it cannot
				// rebuild a tuner from).
				os.Remove(journalPath)
			}
		}
		return nil, err
	}
	sess.at = core.NewAskTell(t)
	sess.publishLocked(created) // not shared yet: no lock needed
	return sess, nil
}

// Get looks up a session, rehydrating it from snapshot + journal tail
// when it has been evicted. The returned handle can still go stale if
// eviction races the caller's use of it; mutating calls then return
// ErrEvicted and should be retried via WithSession.
func (st *Store) Get(id string) (*Session, error) {
	return st.get(id, false)
}

// get is Get with optional pinning: when pin is set the returned
// session's pin count is raised before cap enforcement runs, so the
// eviction sweep triggered by this very lookup cannot pick it. The
// caller must drop the pin when done.
func (st *Store) get(id string, pin bool) (*Session, error) {
	sh := st.shard(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	stb, stubbed := sh.stubs[id]
	sh.mu.RUnlock()
	if ok {
		if pin {
			s.pins.Add(1)
		}
		s.touch()
		return s, nil
	}
	if !stubbed {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s, err := st.rehydrate(sh, stb)
	if err != nil {
		return nil, err
	}
	if pin {
		s.pins.Add(1)
	}
	s.touch()
	st.enforceCap()
	return s, nil
}

// rehydrate rebuilds an evicted session from its on-disk state. The
// stub's mutex single-flights the rebuild: concurrent requests for
// the same session queue here and all but the first find the session
// already live on the re-check.
func (st *Store) rehydrate(sh *storeShard, stb *stub) (*Session, error) {
	stb.mu.Lock()
	defer stb.mu.Unlock()
	// Re-check under the single-flight lock: an earlier waiter may have
	// already rehydrated (session live again), or a concurrent Delete
	// may have removed the stub.
	sh.mu.RLock()
	s, live := sh.sessions[stb.id]
	_, still := sh.stubs[stb.id]
	sh.mu.RUnlock()
	if live {
		return s, nil
	}
	if !still {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, stb.id)
	}
	sess, err := st.loadSession(stb.id)
	if err != nil {
		if errors.Is(err, errUnresumable) || os.IsNotExist(err) {
			// Files vanished under the stub (deleted out of band): drop it.
			sh.mu.Lock()
			if sh.stubs[stb.id] == stb {
				delete(sh.stubs, stb.id)
			}
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, stb.id)
		}
		return nil, err
	}
	sess.touch()
	sh.mu.Lock()
	if sh.stubs[stb.id] != stb {
		// Deleted while we were loading: discard the rebuilt session so
		// the delete wins.
		sh.mu.Unlock()
		sess.close()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, stb.id)
	}
	delete(sh.stubs, stb.id)
	sh.sessions[stb.id] = sess
	sh.mu.Unlock()
	st.rehydrations.Add(1)
	return sess, nil
}

// WithSession runs fn against the named session, retrying the lookup
// when fn reports ErrEvicted — the handle went stale because LRU
// eviction raced the call; the retry re-Gets (rehydrating on demand)
// and runs fn against the fresh session. Bounded so a pathological
// evict/rehydrate storm degrades to an error instead of livelock.
func (st *Store) WithSession(id string, fn func(*Session) error) error {
	for attempt := 0; ; attempt++ {
		s, err := st.get(id, true)
		if err != nil {
			return err
		}
		err = fn(s)
		s.pins.Add(-1)
		// A sweep that ran while this request held its pin may have
		// found nothing evictable and given up; re-check now that the
		// pin is dropped so the store converges back under the cap once
		// traffic drains.
		if st.cfg.MaxLiveSessions > 0 && st.LiveLen() > st.cfg.MaxLiveSessions {
			st.enforceCap()
		}
		if !errors.Is(err, ErrEvicted) || attempt >= 3 {
			return err
		}
	}
}

// enforceCap evicts least-recently-used sessions until the live count
// fits MaxLiveSessions. Serialized by evictMu so concurrent creates
// and rehydrations don't stampede the same victims. In-memory stores
// are exempt: with no snapshot to rehydrate from, eviction would lose
// the session outright.
func (st *Store) enforceCap() {
	if st.cfg.MaxLiveSessions <= 0 || st.dir == "" {
		return
	}
	st.evictMu.Lock()
	defer st.evictMu.Unlock()
	for {
		live := st.all()
		if len(live) <= st.cfg.MaxLiveSessions {
			return
		}
		v := pickVictim(live)
		if v == nil || !st.evictSession(v) {
			// Nothing evictable (every candidate's journal is failing) or
			// the compaction failed; give up this sweep — the next create
			// or rehydration retries.
			return
		}
	}
}

// pickVictim chooses the coldest evictable session: least recently
// accessed, preferring sessions with no live leases (evicting a
// leased session forfeits its workers' leases — the fantasized
// pending set is in-memory only), and skipping sessions whose journal
// writes are failing (their snapshot could not be trusted) or that
// are pinned by an in-flight request.
func pickVictim(live []*Session) *Session {
	var coldest, coldestFree *Session
	var tAny, tFree int64
	for _, s := range live {
		if s.JournalErr() != nil || s.pins.Load() > 0 {
			continue
		}
		at := s.lastAccess.Load()
		if coldest == nil || at < tAny {
			coldest, tAny = s, at
		}
		if s.Snapshot().ActiveLeases == 0 && (coldestFree == nil || at < tFree) {
			coldestFree, tFree = s, at
		}
	}
	if coldestFree != nil {
		return coldestFree
	}
	return coldest
}

// evictSession compacts one session to its snapshot, drops its tuner
// and history from memory, and leaves a stub in the shard index.
// Returns false when the session could not be evicted (compaction
// failed, or a concurrent Delete got there first).
func (st *Store) evictSession(s *Session) bool {
	s.mu.Lock()
	if s.evicted {
		s.mu.Unlock()
		return false
	}
	if err := s.compactLocked(time.Now()); err != nil {
		s.mu.Unlock()
		st.logf("hiperbotd: session %s: eviction aborted, compaction failed: %v", s.id, err)
		return false
	}
	s.evicted = true
	s.publishLocked(time.Now())
	info := s.snap.Load()
	sh := st.shard(s.id)
	sh.mu.Lock()
	if sh.sessions[s.id] != s {
		// Deleted (and possibly re-created) while we compacted: the
		// delete already owns cleanup, leave no stub behind.
		sh.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	delete(sh.sessions, s.id)
	sh.stubs[s.id] = &stub{id: s.id, info: info}
	sh.mu.Unlock()
	s.mu.Unlock()
	s.close()
	st.evictions.Add(1)
	return true
}

// List returns every live session, sorted by id. Evicted sessions are
// not included (rehydrating them all would defeat eviction); use
// Infos for the complete inventory.
func (st *Store) List() []*Session {
	out := st.all()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// Infos reports every session — live ones freshly, evicted ones from
// the info published at eviction time (Evicted=true) — sorted by id,
// without rehydrating anything.
func (st *Store) Infos() []httpapi.SessionInfo {
	var live []*Session
	var out []httpapi.SessionInfo
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		// One critical section per shard: the evict swap (session →
		// stub) is atomic under this lock, so a session can't be
		// collected twice or missed.
		for _, s := range sh.sessions {
			live = append(live, s)
		}
		for _, stb := range sh.stubs {
			out = append(out, *stb.info)
		}
		sh.mu.RUnlock()
	}
	for _, s := range live {
		out = append(out, s.Info())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Len returns the total session count, live plus evicted.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions) + len(sh.stubs)
		sh.mu.RUnlock()
	}
	return n
}

// LiveLen returns the number of sessions currently hydrated in memory.
func (st *Store) LiveLen() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// StoreStats aggregates session and persistence counters for /metrics.
// Evaluation and duplicate counts include evicted sessions (read from
// their eviction-time infos); pending leases are live-only, since
// eviction forfeits a session's leases.
type StoreStats struct {
	Sessions             int // live + evicted
	LiveSessions         int
	Evaluations          int64
	PendingLeases        int
	DuplicateSuggestions int64
	PoolExhaustedRetries int64
	Evictions            int64
	Rehydrations         int64
	Compactions          int64
}

// Stats gathers StoreStats from lock-free session snapshots and
// eviction-time stub infos; scraping /metrics never contends with the
// ask/tell hot path.
func (st *Store) Stats() StoreStats {
	out := StoreStats{
		Evictions:    st.evictions.Load(),
		Rehydrations: st.rehydrations.Load(),
		Compactions:  st.compactions.Load(),
	}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			snap := s.Snapshot()
			out.LiveSessions++
			out.Evaluations += int64(snap.Evaluations)
			out.PendingLeases += snap.ActiveLeases
			out.DuplicateSuggestions += snap.DuplicateSuggestions
			out.PoolExhaustedRetries += snap.PoolExhaustedRetries
		}
		for _, stb := range sh.stubs {
			out.Sessions++
			out.Evaluations += int64(stb.info.Evaluations)
			out.DuplicateSuggestions += stb.info.DuplicateSuggestions
			out.PoolExhaustedRetries += stb.info.PoolExhaustedRetries
		}
		sh.mu.RUnlock()
	}
	out.Sessions += out.LiveSessions
	return out
}

// JournalErrors reports sessions whose journal writes have failed, as
// "id: error" strings sorted by id — the /healthz degraded payload.
func (st *Store) JournalErrors() []string {
	var out []string
	for _, s := range st.all() {
		if err := s.JournalErr(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", s.id, err))
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a session and all its on-disk state: journal,
// snapshot, and any in-flight temp siblings. Works on live and
// evicted sessions alike.
func (st *Store) Delete(id string) error {
	sh := st.shard(id)
	for {
		sh.mu.Lock()
		s, live := sh.sessions[id]
		stb, stubbed := sh.stubs[id]
		if live {
			delete(sh.sessions, id)
			sh.mu.Unlock()
			// Mark evicted under the session lock: this serializes with
			// any in-flight compaction or eviction (both hold s.mu), so
			// neither can recreate the snapshot after we remove the files,
			// and stale handles fail with ErrEvicted instead of journaling
			// into a deleted session.
			s.mu.Lock()
			s.evicted = true
			s.mu.Unlock()
			err := s.close()
			if rerr := st.removeSessionFiles(id); rerr != nil && err == nil {
				err = rerr
			}
			return err
		}
		sh.mu.Unlock()
		if !stubbed {
			return fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		// Evicted session: take the stub's single-flight lock so no
		// rehydration is reading (or repairing) the files while we remove
		// them, then re-check — the stub may have been promoted back to a
		// live session while we waited.
		stb.mu.Lock()
		sh.mu.Lock()
		if sh.stubs[id] == stb {
			delete(sh.stubs, id)
			sh.mu.Unlock()
			err := st.removeSessionFiles(id)
			stb.mu.Unlock()
			return err
		}
		sh.mu.Unlock()
		stb.mu.Unlock()
	}
}

// removeSessionFiles deletes every file a session may have on disk.
// Returns the first real error; missing files are fine (an evicted
// zero-observation session has no snapshot, an in-memory one nothing
// at all).
func (st *Store) removeSessionFiles(id string) error {
	if st.dir == "" {
		return nil
	}
	var first error
	jpath, spath := st.journalPath(id), st.snapshotPath(id)
	for _, p := range []string{jpath, jpath + ".tmp", spath, spath + ".tmp"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the flusher, then flushes and closes every session
// journal. The store must not be used afterwards.
func (st *Store) Close() error {
	st.stopOnce.Do(func() {
		if st.flushStop != nil {
			close(st.flushStop)
			<-st.flushDone
		}
	})
	var first error
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
		sh.sessions = make(map[string]*Session)
		sh.stubs = make(map[string]*stub)
		sh.mu.Unlock()
	}
	return first
}

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.dir, id+".jsonl")
}

// newID generates a random 16-hex-char session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: id generation: %v", err))
	}
	return "s-" + hex.EncodeToString(b[:])
}

// coreOptions translates wire options into core.Options. The
// deprecated proposal_candidates is an alias of candidate_samples: it
// sets CandidateSamples when candidate_samples is 0.
func coreOptions(o httpapi.SessionOptions) (core.Options, error) {
	if o.CandidateSamples < 0 {
		return core.Options{}, fmt.Errorf("server: candidate_samples must be >= 0, got %d", o.CandidateSamples)
	}
	if o.ProposalCandidates < 0 {
		return core.Options{}, fmt.Errorf("server: proposal_candidates must be >= 0, got %d", o.ProposalCandidates)
	}
	opts := core.Options{
		InitialSamples:   o.InitialSamples,
		Seed:             o.Seed,
		PoolCap:          o.PoolCap,
		CandidateSamples: o.CandidateSamples,
		Liar:             o.Liar,
		Groups:           o.Groups,
		Surrogate:        coreSurrogateConfig(o),
	}
	if opts.CandidateSamples == 0 {
		opts.CandidateSamples = o.ProposalCandidates
	}
	// Liar is validated here so a bad policy fails creation with 400
	// before the journal header is written, like a bad strategy.
	if _, err := core.ParseLiarPolicy(o.Liar); err != nil {
		return core.Options{}, fmt.Errorf("server: %w", err)
	}
	// Strategy selects any registered engine by name ("ranking",
	// "proposal", "random", "geist" when compiled in, ...). The empty
	// string is passed through so NewTuner applies the paper default —
	// ranking on enumerable spaces, the pool-free sampling engine on
	// grids past the enumerate limit. Non-empty names are validated
	// here so session creation fails with a 400 rather than deep
	// inside NewTuner.
	name := strings.ToLower(o.Strategy)
	if name != "" {
		if _, ok := core.LookupEngine(name); !ok {
			return core.Options{}, fmt.Errorf("server: unknown strategy %q (registered: %s)",
				o.Strategy, strings.Join(core.EngineNames(), ", "))
		}
	}
	opts.Engine = name
	return opts, nil
}

// maxBins bounds the bins option at create: 50 times the default of
// 20, far below the counts whose histograms cannot be allocated.
const maxBins = 1024

// checkCountBounds rejects, at create, the counts that size an
// allocation past any useful value: pool_cap, candidate_samples and
// its alias proposal_candidates above core.DefaultEnumerateLimit, and
// bins above maxBins. Unbounded, they fail an allocation (a panic) in
// NewTuner, in every model-phase suggest or in every status publish.
// Resume does not check, so journals written without the bounds still
// boot.
func checkCountBounds(o httpapi.SessionOptions) error {
	for _, c := range []struct {
		name   string
		n, max int
	}{
		{"pool_cap", o.PoolCap, core.DefaultEnumerateLimit},
		{"candidate_samples", o.CandidateSamples, core.DefaultEnumerateLimit},
		{"proposal_candidates", o.ProposalCandidates, core.DefaultEnumerateLimit},
		{"bins", o.Bins, maxBins},
	} {
		if c.n > c.max {
			return fmt.Errorf("server: %s %d above its bound %d", c.name, c.n, c.max)
		}
	}
	return nil
}

// coreSurrogateConfig extracts the surrogate hyperparameters.
func coreSurrogateConfig(o httpapi.SessionOptions) core.SurrogateConfig {
	return core.SurrogateConfig{
		Quantile:  o.Quantile,
		Smoothing: o.Smoothing,
		Bandwidth: o.Bandwidth,
		Bins:      o.Bins,
	}
}
