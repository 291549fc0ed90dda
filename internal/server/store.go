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

// storeShard is one lock stripe. sessions holds every session from
// create to delete, in memory or evicted; live is the subset whose
// tuner is resident, the only sessions cap enforcement scans. Both
// change under mu, and a session's entries change only while its own
// lock is held too.
type storeShard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	live     map[string]*Session
}

// reset empties the shard.
func (sh *storeShard) reset() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sessions = make(map[string]*Session)
	sh.live = make(map[string]*Session)
}

// add registers s as in memory, unless its id is taken.
func (sh *storeShard) add(s *Session) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.sessions[s.id]; dup {
		return false
	}
	sh.sessions[s.id] = s
	sh.live[s.id] = s
	return true
}

// setLive records whether s's tuner is resident.
func (sh *storeShard) setLive(s *Session, live bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if live {
		sh.live[s.id] = s
	} else {
		delete(sh.live, s.id)
	}
}

// remove unregisters s, freeing its id.
func (sh *storeShard) remove(s *Session) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.sessions, s.id)
	delete(sh.live, s.id)
}

// read runs fn under the shard's read lock.
func (sh *storeShard) read(fn func(*storeShard)) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fn(sh)
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
	// MaxLiveSessions caps how many sessions keep their tuner in
	// memory; beyond it the least-recently-used idle sessions are
	// compacted to snapshot and evicted, rehydrating in place on
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
//
// A session is one *Session from create to delete. Eviction and
// rehydration change that object in place under its own lock, so a
// handle never goes stale; no shard lock is held across a tuner build
// or file I/O.
type Store struct {
	dir  string
	cfg  StoreConfig
	logf func(format string, args ...any)

	shards [storeShards]storeShard

	// evictMu serializes cap-enforcement sweeps so concurrent creates
	// and rehydrations don't race to evict the same victims. It is
	// taken with a session lock held; a sweep only ever TryLocks
	// sessions.
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
// It fails on a session default that create would reject.
func OpenStoreWithConfig(dir string, cfg StoreConfig) (*Store, error) {
	policy, err := ParseFsyncPolicy(string(cfg.Fsync))
	if err != nil {
		return nil, err
	}
	// Create applies the session defaults to every session that sets
	// none of its own, so they get create's checks here.
	if err := checkCountBounds(httpapi.SessionOptions{PoolCap: cfg.DefaultPoolCap}); err != nil {
		return nil, err
	}
	if _, err := objective.ParseSet(cfg.DefaultObjectives); err != nil {
		return nil, fmt.Errorf("server: default objectives: %w", err)
	}
	if _, err := core.ParseLiarPolicy(cfg.DefaultLiar); err != nil {
		return nil, fmt.Errorf("server: default liar: %w", err)
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
		st.shards[i].reset()
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

// Flush drains every in-memory session's buffered journal appends to
// disk, fsyncing under the interval and always policies. It never
// takes a session lock, so in-flight suggest/observe calls are not
// blocked; an evicted session's journal is closed and holds nothing.
func (st *Store) Flush() error {
	sync := st.cfg.Fsync != FsyncNever
	var first error
	for _, s := range st.liveSessions() {
		if s.sink == nil {
			continue
		}
		if err := s.sink.Flush(sync); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scan calls fn on every shard under its read lock.
func (st *Store) scan(fn func(*storeShard)) {
	for i := range st.shards {
		st.shards[i].read(fn)
	}
}

// liveSessions snapshots the in-memory sessions across every shard,
// unsorted.
func (st *Store) liveSessions() []*Session {
	var out []*Session
	st.scan(func(sh *storeShard) {
		for _, s := range sh.live {
			out = append(out, s)
		}
	})
	return out
}

// resume rebuilds one session from its snapshot + journal tail. Only
// called from OpenStoreWithConfig, before the store is shared. A
// garbled journal with no snapshot behind it is set aside (renamed
// *.corrupt) with a warning instead of failing the whole store open.
func (st *Store) resume(id string) error {
	stt, err := st.loadSessionState(id)
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
	s, err := st.newSession(id, stt.sp, opts, created, stt.hdr.Space)
	if err != nil {
		return err
	}
	if err := s.loadLocked(stt); err != nil { // not shared yet: no lock needed
		return err
	}
	s.touch()
	st.shard(id).add(s)
	st.enforceCap()
	return nil
}

// loadLocked makes s's tuner resident from its on-disk state — the
// shared path of boot resume and rehydration. It repairs crash
// signatures first (torn tail truncated, missing tail rewritten from
// snapshot), replays snapshot + tail into a fresh tuner and starts the
// recorder's running best from it, then reopens the journal. The
// caller holds s.mu or owns s.
func (s *Session) loadLocked(stt *sessionState) error {
	jpath := s.store.journalPath(s.id)
	if stt.truncateTo >= 0 {
		if err := os.Truncate(jpath, stt.truncateTo); err != nil {
			return fmt.Errorf("server: truncating torn journal %s: %w", jpath, err)
		}
	}
	if stt.rebuild {
		var buf bytes.Buffer
		if err := writeHeader(&buf, stt.hdr); err != nil {
			return err
		}
		if err := atomicWriteFile(jpath, buf.Bytes()); err != nil {
			return fmt.Errorf("server: rebuilding journal tail %s: %w", jpath, err)
		}
	}
	at, err := s.newAskTell()
	if err != nil {
		return err
	}
	if len(stt.obs) > 0 {
		if err := at.Tuner().ResumeObs(stt.obs); err != nil {
			return err
		}
		s.rec.ResumeObs(stt.obs)
	}
	if err := s.sink.open(jpath); err != nil {
		return err
	}
	s.at = at
	s.snapBase, s.snapSize, s.snapAt = stt.snapEvents, stt.snapSize, stt.snapAt
	// Cheap publish: refitting Importance (and the O(n²) Pareto scan)
	// per session here would make a many-session boot O(model fits)
	// instead of O(snapshot bytes). The first Info() fills them in.
	s.publishBasicLocked(time.Now())
	return nil
}

// rehydrateLocked rebuilds an evicted session's tuner in place from its
// snapshot and journal tail, then enforces the cap: s stays locked, so
// the sweep skips it. Files that vanished out of band delete the
// session. The caller holds s.mu.
func (st *Store) rehydrateLocked(s *Session) error {
	stt, err := st.loadSessionState(s.id)
	if err == nil {
		err = s.loadLocked(stt)
	}
	if errors.Is(err, errUnresumable) || os.IsNotExist(err) {
		s.deleted = true
		st.shard(s.id).remove(s)
		return fmt.Errorf("%w: %s", ErrNotFound, s.id)
	}
	if err != nil {
		return err
	}
	s.touch()
	st.shard(s.id).setLive(s, true)
	st.rehydrations.Add(1)
	st.enforceCap()
	return nil
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
// predicate; the session keeps sp through eviction. spaceJSON is what
// the journal records; when nil it is derived from sp.
//
// The tuner is built with no lock held, so a rejected option leaves
// neither a session nor a journal behind. The id is then claimed under
// the shard lock and the create header written under the new
// session's own lock: a request that finds the session waits for its
// header, and a create racing a delete of the same id gets ErrExists
// until the delete's files are gone.
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
	s, err := st.newSession(id, sp, opts, time.Now(), spaceJSON)
	if err != nil {
		return nil, err
	}
	if s.at, err = s.newAskTell(); err != nil {
		return nil, err
	}
	s.publishLocked(s.created) // not shared yet: no lock needed
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !st.shard(id).add(s) {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if err := s.writeHeaderLocked(); err != nil {
		s.deleted, s.at = true, nil
		st.shard(id).remove(s)
		return nil, err
	}
	st.enforceCap() // s is locked: the sweep skips it
	return s, nil
}

// newSession returns an unregistered session with no tuner, after
// validating the objective and group specs, which a tuner build does
// not check; at create that is before any journal exists. A journaled
// store gives the session a recorder over a closed sink.
func (st *Store) newSession(id string, sp *space.Space, opts httpapi.SessionOptions, created time.Time, spaceJSON json.RawMessage) (*Session, error) {
	objs, err := objective.ParseSet(opts.Objectives)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := core.ValidateGroups(sp, opts.Groups); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Session{id: id, sp: sp, opts: opts, objs: objs, created: created, store: st, spaceJSON: spaceJSON}
	if st.dir != "" {
		s.sink = &journalSink{limit: st.cfg.FlushBytes, policy: st.cfg.Fsync, closed: true}
		s.rec = core.NewRecorder(s.sink, sp)
	}
	return s, nil
}

// find returns the session registered under id, in memory or evicted.
func (st *Store) find(id string) (*Session, error) {
	sh := st.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s, ok := sh.sessions[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Get looks up a session and makes its tuner resident, rehydrating it
// in place from snapshot + journal tail when it has been evicted.
// A session is the same *Session before and after an eviction.
func (st *Store) Get(id string) (*Session, error) {
	var out *Session
	err := st.WithSession(id, func(s *Session) error {
		out = s
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.hydrateLocked()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WithSession runs fn against the named session. fn's session calls
// rehydrate an evicted session in place. Afterwards it brings the
// store back under its cap: a sweep that ran while fn's call held the
// session lock skipped this session, and one that found every
// candidate busy gave up, so the store converges once traffic drains.
func (st *Store) WithSession(id string, fn func(*Session) error) error {
	s, err := st.find(id)
	if err != nil {
		return err
	}
	s.touch()
	err = fn(s)
	st.enforceCap()
	return err
}

// enforceCap evicts least-recently-used sessions until the in-memory
// count fits MaxLiveSessions. Serialized by evictMu so concurrent
// creates and rehydrations don't stampede the same victims. In-memory
// stores are exempt: with no snapshot to rehydrate from, eviction
// would lose the session outright.
func (st *Store) enforceCap() {
	max := st.cfg.MaxLiveSessions
	if max <= 0 || st.dir == "" || st.LiveLen() <= max {
		return
	}
	st.evictMu.Lock()
	defer st.evictMu.Unlock()
	live := st.liveSessions()
	for st.LiveLen() > max {
		i := pickVictim(live)
		if i < 0 {
			return // every candidate was tried or its journal is failing
		}
		if err := st.tryEvict(live[i]); err != nil {
			// Give up this sweep; the next create or rehydration retries.
			st.logf("hiperbotd: session %s: eviction aborted, compaction failed: %v", live[i].id, err)
			return
		}
		live[i] = nil
	}
}

// pickVictim returns the index of the coldest evictable session, or
// -1: least recently accessed, preferring sessions with no live leases
// (evicting a leased session forfeits its workers' leases — the
// fantasized pending set is in-memory only), and skipping nil entries
// (already tried) and sessions whose journal writes are failing (their
// snapshot could not be trusted).
func pickVictim(live []*Session) int {
	coldest, coldestFree := -1, -1
	var tAny, tFree int64
	for i, s := range live {
		if s == nil || s.JournalErr() != nil {
			continue
		}
		at := s.lastAccess.Load()
		if coldest < 0 || at < tAny {
			coldest, tAny = i, at
		}
		if s.snap.Load().ActiveLeases == 0 && (coldestFree < 0 || at < tFree) {
			coldestFree, tFree = i, at
		}
	}
	if coldestFree >= 0 {
		return coldestFree
	}
	return coldest
}

// tryEvict compacts s to its snapshot, publishes its last info marked
// evicted, drops its tuner and closes its journal; s stays registered
// and rehydrates in place on its next call. It skips s when s's lock
// is held — a call is using it, which keeps a request's own session
// out of the sweep — or s left memory since the scan. The error is the
// compaction's.
func (st *Store) tryEvict(s *Session) error {
	if !s.mu.TryLock() {
		return nil
	}
	defer s.mu.Unlock()
	if s.at == nil {
		return nil
	}
	now := time.Now()
	if err := s.compactLocked(now); err != nil {
		return err
	}
	s.publishLocked(now)
	info := *s.snap.Load()
	info.Evicted = true
	s.snap.Store(&info)
	s.at = nil
	// Nothing is buffered: compaction flushed the journal, and the
	// snapshot holds every event, so a failed close loses nothing.
	_ = s.close()
	st.shard(s.id).setLive(s, false)
	st.evictions.Add(1)
	return nil
}

// List returns every in-memory session, sorted by id. Evicted sessions
// are not included (rehydrating them all would defeat eviction); use
// Infos for the complete inventory.
func (st *Store) List() []*Session {
	out := st.liveSessions()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// Infos reports every session — in-memory ones freshly, evicted ones
// from the info published at eviction time (Evicted=true) — sorted by
// id, without rehydrating anything.
func (st *Store) Infos() []httpapi.SessionInfo {
	var all []*Session
	st.scan(func(sh *storeShard) {
		for _, s := range sh.sessions {
			all = append(all, s)
		}
	})
	out := make([]httpapi.SessionInfo, len(all))
	for i, s := range all {
		out[i] = s.Info()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Len returns the total session count, in memory plus evicted.
func (st *Store) Len() int {
	n := 0
	st.scan(func(sh *storeShard) { n += len(sh.sessions) })
	return n
}

// LiveLen returns the number of sessions whose tuner is in memory.
func (st *Store) LiveLen() int {
	n := 0
	st.scan(func(sh *storeShard) { n += len(sh.live) })
	return n
}

// StoreStats aggregates session and persistence counters for /metrics.
// Evaluation and duplicate counts include evicted sessions (read from
// their eviction-time infos); pending leases are in-memory only, since
// eviction forfeits a session's leases.
type StoreStats struct {
	Sessions             int // in memory + evicted
	LiveSessions         int
	Evaluations          int64
	PendingLeases        int
	DuplicateSuggestions int64
	PoolExhaustedRetries int64
	Evictions            int64
	Rehydrations         int64
	Compactions          int64
}

// Stats gathers StoreStats from lock-free session snapshots; scraping
// /metrics never contends with the ask/tell hot path.
func (st *Store) Stats() StoreStats {
	out := StoreStats{
		Evictions:    st.evictions.Load(),
		Rehydrations: st.rehydrations.Load(),
		Compactions:  st.compactions.Load(),
	}
	st.scan(func(sh *storeShard) {
		for id, s := range sh.sessions {
			snap := s.snap.Load()
			out.Sessions++
			out.Evaluations += int64(snap.Evaluations)
			out.DuplicateSuggestions += snap.DuplicateSuggestions
			out.PoolExhaustedRetries += snap.PoolExhaustedRetries
			if _, ok := sh.live[id]; ok {
				out.LiveSessions++
				out.PendingLeases += snap.ActiveLeases
			}
		}
	})
	return out
}

// JournalErrors reports in-memory sessions whose journal writes have
// failed, as "id: error" strings sorted by id — the /healthz degraded
// payload. The sweep never evicts a session whose journal is failing.
func (st *Store) JournalErrors() []string {
	var out []string
	for _, s := range st.liveSessions() {
		if err := s.JournalErr(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", s.id, err))
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a session and all its on-disk state: journal,
// snapshot, and any in-flight temp siblings. It works on in-memory and
// evicted sessions alike, under the session's lock, and frees the id
// only after the files are gone, so a create of the same id that
// succeeds never has its journal removed by this delete.
func (st *Store) Delete(id string) error {
	s, err := st.find(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.deleted, s.at = true, nil
	err = s.close()
	if rerr := st.removeSessionFiles(id); rerr != nil && err == nil {
		err = rerr
	}
	st.shard(id).remove(s)
	return err
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
	for _, s := range st.liveSessions() {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	for i := range st.shards {
		st.shards[i].reset()
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

// TunerOptions is the one mapping from wire session options to
// core.Options: create, resume and rehydration build every session's
// tuner from it, and in-process CLIs that take the session flags use
// it too. core.NewTuner checks what it maps (engine name, liar policy,
// counts). The deprecated proposal_candidates is an alias of
// candidate_samples: it sets CandidateSamples when candidate_samples
// is 0.
func TunerOptions(o httpapi.SessionOptions) (core.Options, error) {
	if o.ProposalCandidates < 0 {
		return core.Options{}, fmt.Errorf("server: proposal_candidates must be >= 0, got %d", o.ProposalCandidates)
	}
	opts := core.Options{
		InitialSamples:   o.InitialSamples,
		Seed:             o.Seed,
		Engine:           o.Strategy,
		PoolCap:          o.PoolCap,
		CandidateSamples: o.CandidateSamples,
		Liar:             o.Liar,
		Groups:           o.Groups,
		Surrogate:        core.SurrogateConfig{Quantile: o.Quantile, Smoothing: o.Smoothing, Bandwidth: o.Bandwidth, Bins: o.Bins},
	}
	if opts.CandidateSamples == 0 {
		opts.CandidateSamples = o.ProposalCandidates
	}
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
