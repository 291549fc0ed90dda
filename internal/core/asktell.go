package core

import (
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
	leased LeaseFilter // the live leases, as acquisition tests them
	heap   leaseHeap   // expiry-ordered; never holds forever-leases
	ver    uint64      // monotonic heap-entry version counter

	suggested configSet // every configuration ever handed out by Ask
	dups      int64     // re-suggestions of a previously handed-out configuration
}

// NewAskTell wraps t. The tuner must not be driven through Step/Run
// concurrently with Ask/Tell.
func NewAskTell(t *Tuner) *AskTell {
	id := t.history.identity()
	a := &AskTell{
		t:         t,
		leased:    LeaseFilter{index: configIndex{id: id}, pool: t.pool},
		suggested: configSet{configIndex: configIndex{id: id}},
	}
	if t.pool != nil {
		a.leased.bits = make([]uint64, (t.pool.Size()+63)/64)
	}
	return a
}

// LeaseFilter is the set of live leases as acquisition tests it: the
// leases indexed by configuration identity, for configurations drawn
// outside the pool, plus a bitset over the candidate indices of the
// tuner's pool, sized once in NewAskTell, so loops over the pool test
// an index. A nil filter reports nothing leased.
type LeaseFilter struct {
	live  []Lease     // the live leases, in no particular order
	index configIndex // live by configuration identity
	pool  *Pool       // the pool bits indexes; nil for pool-free tuners
	bits  []uint64    // leased candidate indices of pool
}

func (f *LeaseFilter) row(i int) space.Config { return f.live[i].Config }

// Has reports whether configuration c is leased.
func (f *LeaseFilter) Has(c space.Config) bool {
	return f != nil && len(c) == f.index.id.arity() && f.has(c, f.index.id.hash(c))
}

// has is Has for a row of the space's arity whose identity hash is h.
func (f *LeaseFilter) has(c space.Config, h uint64) bool {
	return f != nil && f.index.lookup(c, h, f.row) >= 0
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

// filter returns the lease filter for the next acquisition: nil while
// no lease is live, so the serial path runs exactly as a tuner without
// leases.
func (a *AskTell) filter() *LeaseFilter {
	if len(a.leased.live) == 0 {
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
	return len(a.leased.live)
}

// DuplicateSuggestions counts configurations Ask handed out more than
// once over the session's lifetime. Under live leases it stays 0 by
// construction; it only advances when an expired (or stolen) lease's
// candidate is legitimately re-issued — the observable duplicate-work
// metric surfaced per session and in /metrics.
func (a *AskTell) DuplicateSuggestions() int64 { return a.dups }

// expire drops every lease whose deadline has passed, popping the
// expiry-ordered heap instead of walking the live leases: O(e·log n)
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
		f := &a.leased
		i := f.index.scan(top.h, func(i int) bool { return f.live[i].ver == top.ver })
		if i < 0 {
			continue // released or renewed since this entry was pushed
		}
		a.release(f.live[i].Config, top.h)
	}
}

// lease records one candidate picked for the caller: live lease,
// expiry-heap entry (finite deadlines only), filter bit, and pending
// fantasy. It returns the lease's copy of the candidate.
func (a *AskTell) lease(c space.Config, deadline time.Time) space.Config {
	f := &a.leased
	c = c.Clone()
	h := f.index.id.hash(c)
	a.ver++
	l := Lease{Config: c, Expires: deadline, ver: a.ver}
	if i := f.index.insert(c, h, len(f.live), f.row); i >= 0 {
		f.live[i] = l
	} else {
		f.live = append(f.live, l)
	}
	if !deadline.IsZero() {
		a.heap.push(leaseEntry{at: deadline, h: h, ver: a.ver})
	}
	f.mark(c, true)
	a.t.history.addPending(c, h)
	return c
}

// countSuggested records the picks a caller receives (the leases'
// copies), counting those handed out before as duplicate suggestions.
func (a *AskTell) countSuggested(picks []space.Config) {
	for _, c := range picks {
		if !a.suggested.add(c, a.suggested.id.hash(c)) {
			a.dups++
		}
	}
}

// release drops the lease of c, whose identity hash is h, with its
// filter bit and its pending fantasy (no-op when c is not leased). The
// heap entry is left behind for lazy deletion.
func (a *AskTell) release(c space.Config, h uint64) {
	f := &a.leased
	last := len(f.live) - 1
	i := f.index.remove(c, h, last, f.row)
	if i < 0 {
		return
	}
	l := f.live[i]
	f.live[i] = f.live[last]
	f.live[last] = Lease{}
	f.live = f.live[:last]
	f.mark(l.Config, false)
	a.t.history.removePending(l.Config, h)
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
	leased := make([]space.Config, 0, k) // the leases' copies of this call's picks

	if a.InitialPhase() {
		picks, err := a.t.SelectInitial(k, a.filter())
		if err != nil {
			return nil, err
		}
		for _, c := range picks {
			leased = append(leased, a.lease(c, deadline))
		}
		a.countSuggested(leased)
		return picks, nil
	}

	picks := make([]space.Config, 0, k)
	for len(picks) < k {
		batch, err := a.t.SelectBatchFiltered(1, a.filter())
		if err != nil {
			// Roll back this call's leases: candidates never handed out
			// must not stay fantasized or fenced off.
			for _, c := range leased {
				a.release(c, a.leased.index.id.hash(c))
			}
			return nil, err
		}
		if len(batch) == 0 {
			break // nothing left outside the evaluated and leased set
		}
		c := batch[0]
		leased = append(leased, a.lease(c, deadline))
		picks = append(picks, c)
	}
	a.countSuggested(leased)
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
	f := &a.leased
	for _, c := range configs {
		i, h := -1, uint64(0)
		if len(c) == f.index.id.arity() {
			h = f.index.id.hash(c)
			i = f.index.lookup(c, h, f.row)
		}
		if i < 0 {
			lost = append(lost, c)
			continue
		}
		a.ver++
		l := &f.live[i]
		l.Expires = deadline
		l.ver = a.ver
		if !deadline.IsZero() {
			a.heap.push(leaseEntry{at: deadline, h: h, ver: a.ver})
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
	c := obs.Config
	h := a.leased.index.id.hash(c)
	if a.t.history.has(c, h) {
		a.release(c, h)
		return false, nil
	}
	if err := a.t.ObserveObs(obs); err != nil {
		return false, err
	}
	a.release(c, h)
	// Once observed, a configuration is never suggested again, so the
	// suggestion log can share the history's copy instead of keeping
	// the lease's.
	if i := a.suggested.lookup(c, h, a.suggested.row); i >= 0 {
		a.suggested.rows[i] = a.t.history.At(a.t.history.Len() - 1).Config
	}
	return true, nil
}

// leaseEntry is one deadline in the expiry heap. Entries are
// immutable; renewing or releasing a lease orphans its entry (version
// mismatch) rather than removing it. An entry names its lease by
// version, which is unique, and by identity hash, which leads to it
// in the lease index; it holds no configuration, so an orphaned entry
// keeps no released lease's row alive.
type leaseEntry struct {
	at  time.Time
	h   uint64 // identity hash of the lease's configuration
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
