package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Ask/tell driving: the Tuner's SelectBatch/Observe pair already
// decouples selection from evaluation, but a long-running service
// needs one more piece of bookkeeping — *leases*. A worker that asks
// for candidates may crash before reporting results; without leases
// its candidates would either be re-suggested to the next worker
// (duplicate work) or stranded forever (lost coverage). AskTell
// tracks every outstanding candidate with a deadline: while the lease
// is live the candidate is never handed out again, and once it
// expires the candidate silently returns to the pool.
//
// Leases are pending-aware: every leased configuration is fantasized
// into the history's pending overlay (History.AddPending) so fits see
// it as a constant-liar observation, and Ask selects one candidate at
// a time — fantasizing each pick before the next — so a single batch
// is internally diverse and concurrent askers are steered away from
// in-flight work. A released lease (result told, expiry, or renewal
// lapse) drops its fantasy with it.
//
// AskTell is not safe for concurrent use; callers (the hiperbotd
// session layer) serialize access with their own lock.

// Lease records one outstanding candidate: handed to a caller of Ask,
// not yet reported through Tell.
type Lease struct {
	// Config is the leased candidate.
	Config space.Config
	// Expires is the deadline after which the lease lapses and the
	// candidate may be suggested again. The zero time never expires.
	Expires time.Time

	// ver matches the lease to its live expiry-heap entry; renewals
	// bump it, orphaning the superseded heap entries (lazy deletion).
	ver uint64
}

// AskTell wraps a Tuner with lease bookkeeping for service-style
// driving: Ask leases candidates, Tell reports results (idempotently)
// and releases the matching lease.
type AskTell struct {
	t      *Tuner
	leases map[string]Lease
	leased LeaseFilter // the live leases as acquisition tests them
	heap   leaseHeap   // expiry-ordered; never holds forever-leases
	ver    uint64      // monotonic heap-entry version counter

	suggested map[string]bool // every key ever handed out by Ask
	dups      int64           // re-suggestions of a previously handed-out key
}

// NewAskTell wraps t. The tuner must not be driven through Step/Run
// concurrently with Ask/Tell.
func NewAskTell(t *Tuner) *AskTell {
	a := &AskTell{
		t:         t,
		leases:    make(map[string]Lease),
		suggested: make(map[string]bool),
	}
	a.leased = LeaseFilter{sp: t.sp, leases: a.leases}
	return a
}

// LeaseFilter is the set of live leases as acquisition tests it: a
// bitset over the candidate indices of the tuner's pool, so loops over
// the pool test an index instead of formatting a key per candidate,
// plus the lease map itself for configurations drawn outside the pool.
// A nil filter reports nothing leased.
type LeaseFilter struct {
	sp     *space.Space
	leases map[string]Lease // live leases by Space.Key, shared with AskTell
	pool   *Pool            // the pool bits indexes; nil for pool-free tuners
	bits   []uint64         // leased candidate indices of pool
}

// Has reports whether configuration c is leased.
func (f *LeaseFilter) Has(c space.Config) bool {
	if f == nil {
		return false
	}
	_, ok := f.leases[f.sp.Key(c)]
	return ok
}

// HasIndex reports whether candidate i of the tuner's pool is leased.
func (f *LeaseFilter) HasIndex(i int) bool {
	return f != nil && f.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// mark sets (on) or clears the bit of c when c is a candidate of the
// pool the bitset indexes.
func (f *LeaseFilter) mark(c space.Config, on bool) {
	if f.pool == nil {
		return
	}
	i := f.pool.IndexOf(c)
	if i < 0 {
		return
	}
	bit := uint64(1) << (uint(i) & 63)
	if on {
		f.bits[i>>6] |= bit
	} else {
		f.bits[i>>6] &^= bit
	}
}

// bind points the bitset at pool, rebuilding it from the live leases
// when pool is not the one it indexes (Tuner.RefreshPool swaps the
// tuner's pool).
func (f *LeaseFilter) bind(pool *Pool) {
	if f.pool == pool {
		return
	}
	f.pool, f.bits = pool, nil
	if pool == nil {
		return
	}
	f.bits = make([]uint64, (pool.Size()+63)/64)
	for _, l := range f.leases {
		f.mark(l.Config, true)
	}
}

// filter returns the lease filter for the next acquisition, bound to
// the tuner's current pool: nil while no lease is live, so the serial
// path runs exactly as a tuner without leases.
func (a *AskTell) filter() *LeaseFilter {
	a.leased.bind(a.t.pool)
	if len(a.leases) == 0 {
		return nil
	}
	return &a.leased
}

// Tuner returns the wrapped tuner.
func (a *AskTell) Tuner() *Tuner { return a.t }

// InitialPhase reports whether the tuner is still collecting its
// initial random samples (during which Ask returns uniform draws
// rather than surrogate-guided selections).
func (a *AskTell) InitialPhase() bool {
	return a.t.Evaluations() < a.t.InitialSamples()
}

// Leases returns the number of outstanding (non-expired) leases as of
// now. Each live lease has exactly one pending fantasy in the history.
func (a *AskTell) Leases(now time.Time) int {
	a.expire(now)
	return len(a.leases)
}

// DuplicateSuggestions counts configurations Ask handed out more than
// once over the session's lifetime. Under live leases it stays 0 by
// construction; it only advances when an expired (or stolen) lease's
// candidate is legitimately re-issued — the observable duplicate-work
// metric surfaced per session and in /metrics.
func (a *AskTell) DuplicateSuggestions() int64 { return a.dups }

// expire drops every lease whose deadline has passed, popping the
// expiry-ordered heap instead of walking the lease map: O(e·log n)
// for e expirations, so sessions with thousands of live leases pay
// nothing on the common no-expiry call. Heap entries orphaned by
// renewals or releases are skipped via the version check.
func (a *AskTell) expire(now time.Time) {
	for a.heap.len() > 0 {
		top := a.heap.peek()
		if !now.After(top.at) {
			return
		}
		a.heap.pop()
		l, ok := a.leases[top.key]
		if !ok || l.ver != top.ver {
			continue // released or renewed since this entry was pushed
		}
		delete(a.leases, top.key)
		a.leased.mark(l.Config, false)
		a.t.history.RemovePendingKey(top.key)
	}
}

// lease records one candidate picked for the caller: lease-map entry,
// expiry-heap entry (finite deadlines only), filter bit, and pending
// fantasy. It returns the candidate's key.
func (a *AskTell) lease(c space.Config, deadline time.Time) string {
	key := a.t.sp.Key(c)
	a.ver++
	a.leases[key] = Lease{Config: c.Clone(), Expires: deadline, ver: a.ver}
	if !deadline.IsZero() {
		a.heap.push(leaseEntry{at: deadline, key: key, ver: a.ver})
	}
	a.leased.mark(c, true)
	a.t.history.AddPending(c)
	return key
}

// countSuggested records the keys of the picks a caller receives,
// counting those handed out before as duplicate suggestions.
func (a *AskTell) countSuggested(keys []string) {
	for _, key := range keys {
		if a.suggested[key] {
			a.dups++
		} else {
			a.suggested[key] = true
		}
	}
}

// release drops a lease, its filter bit and its pending fantasy (no-op
// when the key is not leased). The heap entry is left behind for lazy
// deletion.
func (a *AskTell) release(key string) {
	l, ok := a.leases[key]
	if !ok {
		return
	}
	delete(a.leases, key)
	a.leased.mark(l.Config, false)
	a.t.history.RemovePendingKey(key)
}

// Ask leases up to k distinct, not-yet-evaluated, not-currently-leased
// configurations. During the initial phase candidates are uniform
// random draws; afterwards they are selected one at a time, each pick
// fantasized into the pending overlay (constant-liar) before the next
// selection, so the model steers every subsequent pick — in this batch
// and in concurrent Asks — away from in-flight work. ttl <= 0 leases
// forever. A short (or empty) result means the unevaluated pool net of
// live leases is smaller than k, or, for engines without a pool, that
// acquisition found no configuration outside the evaluated and leased
// ones. On an error no candidate stays leased or counts as suggested.
//
// With no outstanding leases and k = 1 the selection is bit-identical
// to SelectBatch(1): the fantasy is added only after the pick, and is
// removed when the result is told, so the serial ask/tell path matches
// the Tuner-driven loop exactly.
func (a *AskTell) Ask(k int, ttl time.Duration, now time.Time) ([]space.Config, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: Ask with k < 1")
	}
	a.expire(now)
	deadline := time.Time{}
	if ttl > 0 {
		deadline = now.Add(ttl)
	}
	keys := make([]string, 0, k) // leased by this call

	if a.InitialPhase() {
		picks, err := a.t.SelectInitial(k, a.filter())
		if err != nil {
			return nil, err
		}
		for _, c := range picks {
			keys = append(keys, a.lease(c, deadline))
		}
		a.countSuggested(keys)
		return picks, nil
	}

	picks := make([]space.Config, 0, k)
	for len(picks) < k {
		batch, err := a.t.SelectBatchFiltered(1, a.filter())
		if errors.Is(err, errExhausted) {
			break // nothing left outside the evaluated and leased set
		}
		if err != nil {
			// Roll back this call's leases: candidates never handed out
			// must not stay fantasized or fenced off.
			for _, key := range keys {
				a.release(key)
			}
			return nil, err
		}
		if len(batch) == 0 {
			break // pool net of leases exhausted
		}
		c := batch[0]
		keys = append(keys, a.lease(c, deadline))
		picks = append(picks, c)
	}
	a.countSuggested(keys)
	return picks, nil
}

// Renew extends the deadlines of currently leased configurations to
// now+ttl (ttl <= 0 makes them never expire), for workers whose
// evaluations outlive the original lease. It returns the number of
// leases renewed plus the configurations that are no longer leased —
// expired and possibly re-issued ("stolen"), or already evaluated —
// which the worker should treat as lost: its result may still be told
// (Tell folds unsolicited results), but the candidate is no longer
// reserved for it.
func (a *AskTell) Renew(configs []space.Config, ttl time.Duration, now time.Time) (renewed int, lost []space.Config) {
	a.expire(now)
	deadline := time.Time{}
	if ttl > 0 {
		deadline = now.Add(ttl)
	}
	for _, c := range configs {
		key := a.t.sp.Key(c)
		l, ok := a.leases[key]
		if !ok {
			lost = append(lost, c)
			continue
		}
		a.ver++
		l.Expires = deadline
		l.ver = a.ver
		a.leases[key] = l
		if !deadline.IsZero() {
			a.heap.push(leaseEntry{at: deadline, key: key, ver: a.ver})
		}
		renewed++
	}
	return renewed, lost
}

// Tell reports an evaluated configuration and releases its lease (if
// any). Duplicate reports of an already-evaluated configuration are
// idempotent: they release the lease and return added=false with no
// error, so retried deliveries from workers are harmless. The
// configuration need not have been leased — unsolicited results are
// folded in too. Structurally invalid configurations error without
// touching the history.
func (a *AskTell) Tell(c space.Config, value float64) (added bool, err error) {
	return a.TellObs(Observation{Config: c, Value: value})
}

// TellObs is Tell for a full observation (raw metrics and canonical
// objective vector included) — the wire path for multi-metric results.
// Releasing the lease drops its constant-liar fantasy, so the real
// observation replaces the fantasized one in the next fit.
func (a *AskTell) TellObs(obs Observation) (added bool, err error) {
	if err := a.t.sp.Check(obs.Config); err != nil {
		return false, err
	}
	key := a.t.sp.Key(obs.Config)
	if a.t.history.Contains(obs.Config) {
		a.release(key)
		return false, nil
	}
	if err := a.t.ObserveObs(obs); err != nil {
		return false, err
	}
	a.release(key)
	return true, nil
}

// leaseEntry is one deadline in the expiry heap. Entries are
// immutable; renewing or releasing a lease orphans its entry (version
// mismatch) rather than removing it.
type leaseEntry struct {
	at  time.Time
	key string
	ver uint64
}

// leaseHeap is a binary min-heap of lease deadlines with lazy
// deletion, replacing the per-call O(n) lease-map walk of expire.
type leaseHeap struct {
	e []leaseEntry
}

func (h *leaseHeap) len() int { return len(h.e) }

func (h *leaseHeap) peek() leaseEntry { return h.e[0] }

func (h *leaseHeap) push(x leaseEntry) {
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.e[i].at.Before(h.e[parent].at) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}

func (h *leaseHeap) pop() leaseEntry {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e[last] = leaseEntry{} // let the key string go
	h.e = h.e[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h.e) {
			break
		}
		if right := child + 1; right < len(h.e) && h.e[right].at.Before(h.e[child].at) {
			child = right
		}
		if !h.e[child].at.Before(h.e[i].at) {
			break
		}
		h.e[i], h.e[child] = h.e[child], h.e[i]
		i = child
	}
	return top
}
