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
// into the history's pending overlay so fits see it as a constant-liar
// observation, and Ask selects one candidate at a time — fantasizing
// each pick before the next — so a single batch is internally diverse
// and concurrent askers are steered away from in-flight work. The
// overlay row is the lease: AskTell keeps only each lease's expiry
// version beside it, and the tuner's pool marks the leased candidate.
// A released lease (result told, expiry, or renewal lapse) drops its
// fantasy with it.
//
// AskTell is not safe for concurrent use; callers (the hiperbotd
// session layer) serialize access with their own lock.

// AskTell wraps a Tuner with lease bookkeeping for service-style
// driving: Ask leases candidates, Tell reports results (idempotently)
// and releases the matching lease.
type AskTell struct {
	t    *Tuner
	vers []uint64  // per pending-overlay row, in its order: the version of its lease's live heap entry
	heap leaseHeap // expiry-ordered; never holds forever-leases
	ver  uint64    // monotonic heap-entry version counter

	lapsed configSet // configurations whose lease expired, neither re-issued nor observed since
	dups   int64     // re-issues of a lapsed configuration
}

// NewAskTell wraps t. The tuner must not be driven through Step/Run
// concurrently with Ask/Tell.
func NewAskTell(t *Tuner) *AskTell {
	return &AskTell{t: t, lapsed: configSet{configIndex: configIndex{id: t.history.identity()}}}
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
// now. Each live lease is exactly one pending fantasy in the history.
func (a *AskTell) Leases(now time.Time) int {
	a.expire(now)
	return len(a.vers)
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
// renewals or releases are skipped via the version check. An expired
// configuration joins the lapsed set, the only configurations Ask can
// hand out twice.
func (a *AskTell) expire(now time.Time) {
	pend := &a.t.history.pend
	for a.heap.len() > 0 {
		top := a.heap.peek()
		if !now.After(top.at) {
			return
		}
		a.heap.pop()
		i := pend.scan(top.h, func(i int) bool { return a.vers[i] == top.ver })
		if i < 0 {
			continue // released or renewed since this entry was pushed
		}
		c := pend.rows[i]
		a.release(c, top.h)
		a.lapsed.add(c, top.h)
	}
}

// lease records one candidate picked for the caller: pending fantasy
// (the lease's own copy of the candidate), expiry-heap entry (finite
// deadlines only), and pool bit. It returns the lease's copy.
func (a *AskTell) lease(c space.Config, deadline time.Time) space.Config {
	c = c.Clone()
	h := a.t.history.identity().hash(c)
	a.ver++
	if a.t.history.addPending(c, h) { // false only for a leased pick, which no acquirer makes
		a.vers = append(a.vers, a.ver)
	}
	if !deadline.IsZero() {
		a.heap.push(leaseEntry{at: deadline, h: h, ver: a.ver})
	}
	if a.t.pool != nil {
		a.t.pool.markLeased(c, true)
	}
	return c
}

// countSuggested counts the picks a caller receives that re-issue a
// lapsed configuration as duplicate suggestions. Only a successful Ask
// calls it, so a pick rolled back by a failing Ask leaves its
// configuration lapsed.
func (a *AskTell) countSuggested(picks []space.Config) {
	if len(a.lapsed.rows) == 0 {
		return
	}
	for _, c := range picks {
		if a.lapsed.remove(c, a.lapsed.id.hash(c)) >= 0 {
			a.dups++
		}
	}
}

// release drops the lease of c, whose identity hash is h: its pending
// fantasy, its version and its pool bit (no-op when c is not leased).
// The heap entry is left behind for lazy deletion.
func (a *AskTell) release(c space.Config, h uint64) {
	i := a.t.history.removePending(c, h)
	if i < 0 {
		return
	}
	last := len(a.vers) - 1
	a.vers[i] = a.vers[last]
	a.vers = a.vers[:last]
	if a.t.pool != nil {
		a.t.pool.markLeased(c, false)
	}
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
		picks, err := a.t.SelectInitial(k)
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
		batch, err := a.t.SelectBatch(1)
		if err != nil {
			// Roll back this call's leases: candidates never handed out
			// must not stay fantasized or fenced off.
			for _, c := range leased {
				a.release(c, a.t.history.identity().hash(c))
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
	pend := &a.t.history.pend
	for _, c := range configs {
		i, h := -1, uint64(0)
		if len(c) == pend.id.arity() {
			h = pend.id.hash(c)
			i = pend.lookup(c, h, pend.row)
		}
		if i < 0 {
			lost = append(lost, c)
			continue
		}
		a.ver++
		a.vers[i] = a.ver
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
	h := a.t.history.identity().hash(c)
	if a.t.history.has(c, h) {
		a.release(c, h)
		return false, nil
	}
	if err := a.t.ObserveObs(obs); err != nil {
		return false, err
	}
	a.release(c, h)
	a.lapsed.remove(c, h) // an observed configuration is never issued again
	return true, nil
}

// leaseEntry is one deadline in the expiry heap. Entries are
// immutable; renewing or releasing a lease orphans its entry (version
// mismatch) rather than removing it. An entry names its lease by
// version, which is unique, and by identity hash, which leads to it
// in the pending overlay's index; it holds no configuration, so an
// orphaned entry keeps no released lease's row alive.
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
