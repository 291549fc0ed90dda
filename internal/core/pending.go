package core

import (
	"fmt"
	"strings"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Pending-observation overlay (batch Bayesian optimization via the
// constant-liar heuristic, Watanabe's TPE survey). A service hands out
// candidates whose true values are still being computed; until the
// results arrive, the surrogate knows nothing about them and would
// happily re-propose their immediate neighborhood to the next asker.
// The fix is to *fantasize*: pretend each in-flight candidate has
// already been observed at a made-up ("liar") value, fit against
// observed + fantasized points, and let the densities steer the next
// pick elsewhere.
//
// The overlay stores only the pending configurations; fantasy values
// are derived at fit time from the observed values under the session's
// LiarPolicy. That makes the fantasized history a pure function of
// (generation, PendingHash), which is exactly the composed cache key
// the engines use — the exact generation-keyed fit caches from the
// incremental hot path stay valid, and when no leases are outstanding
// PendingHash is 0 and every code path degenerates bit-identically to
// the overlay-free behavior.

// LiarPolicy selects the fantasy value assigned to pending
// observations: a summary statistic of the observed objective values.
type LiarPolicy int

const (
	// LiarMean fantasizes the arithmetic mean of the observed values —
	// the neutral default: pending points neither attract (as "good"
	// members) nor repel future exploration more than the data warrants.
	LiarMean LiarPolicy = iota
	// LiarMin fantasizes the best (minimum) observed value — the
	// optimistic, most repellent choice: pending points join the good
	// set, pushing the next picks maximally away from in-flight work.
	LiarMin
	// LiarMax fantasizes the worst (maximum) observed value — the
	// pessimistic choice: pending points are written off as bad, which
	// diversifies the least but never distorts the good density.
	LiarMax
)

// ParseLiarPolicy maps a wire/flag spelling to a LiarPolicy. The empty
// string is the default (mean).
func ParseLiarPolicy(s string) (LiarPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mean":
		return LiarMean, nil
	case "min":
		return LiarMin, nil
	case "max":
		return LiarMax, nil
	default:
		return 0, fmt.Errorf("core: unknown liar policy %q (want min, mean, or max)", s)
	}
}

// String implements fmt.Stringer.
func (p LiarPolicy) String() string {
	switch p {
	case LiarMin:
		return "min"
	case LiarMax:
		return "max"
	case LiarMean:
		return "mean"
	default:
		return fmt.Sprintf("LiarPolicy(%d)", int(p))
	}
}

// SetLiar selects the constant-liar policy used for fantasy values.
// Changing the policy invalidates the cached fantasized view.
func (h *History) SetLiar(p LiarPolicy) {
	if h.liar != p {
		h.liar = p
		h.fant = nil
	}
}

// Liar returns the active constant-liar policy.
func (h *History) Liar() LiarPolicy { return h.liar }

// addPending registers c, a row of the space's arity whose identity
// hash is hc, as in-flight: fitted models see it as a fantasy
// observation until it is removed (result told or lease expired). The
// overlay keeps c itself as its last row; AskTell, its only writer,
// passes its lease's copy. It reports false, changing nothing, when c
// is already pending.
func (h *History) addPending(c space.Config, hc uint64) bool {
	if !h.pend.add(c, hc) {
		return false
	}
	h.pendHash ^= hc
	return true
}

// removePending drops c, whose identity hash is hc, from the overlay
// and returns the row it freed, which the overlay's last row now
// fills, or -1 when c is not pending.
func (h *History) removePending(c space.Config, hc uint64) int {
	i := h.pend.remove(c, hc)
	if i >= 0 {
		h.pendHash ^= hc
	}
	return i
}

// observedOrPending reports whether c, a row of the space's arity
// whose identity hash is hc, is evaluated or in flight: the test every
// draw outside a pool makes before keeping a configuration.
func (h *History) observedOrPending(c space.Config, hc uint64) bool {
	return h.has(c, hc) || h.pend.has(c, hc)
}

// PendingLen returns the number of in-flight configurations.
func (h *History) PendingLen() int { return len(h.pend.rows) }

// PendingHash returns an order-independent digest of the pending set:
// 0 when empty, and any add/remove round-trip restores the previous
// value. Composed with Generation it keys every pending-aware model
// fit — equal (generation, hash) pairs mean the fantasized history is
// unchanged.
func (h *History) PendingHash() uint64 { return h.pendHash }

// Fantasized returns the history the engines should fit when pending
// work exists: the observed history extended with one fantasy
// observation per pending configuration, valued under the liar policy.
// With an empty overlay it returns h itself, so the no-pending fit
// path is untouched. The result is cached by (generation,
// PendingHash) and is a fitting-only view: it shares observation
// structs with h, has no duplicate tracking, and must not be mutated.
func (h *History) Fantasized() *History {
	if len(h.pend.rows) == 0 {
		return h
	}
	if h.fant != nil && h.fantGen == h.gen && h.fantHash == h.pendHash {
		return h.fant
	}
	f := &History{sp: h.sp, gen: h.gen, best: h.best}
	f.obs = make([]Observation, 0, len(h.obs)+len(h.pend.rows))
	f.obs = append(f.obs, h.obs...)
	lie := h.liarValue()
	vec := h.liarVector()
	for _, c := range h.pend.rows {
		f.obs = append(f.obs, Observation{Config: c, Value: lie, Objectives: vec})
	}
	if f.best < 0 {
		f.best = 0 // no real observations yet: any fantasy is "best"
	}
	h.fant, h.fantGen, h.fantHash = f, h.gen, h.pendHash
	return f
}

// liarValue computes the fantasy scalar under the active policy. Every
// policy stays inside the observed value range, so Best never moves.
func (h *History) liarValue() float64 {
	if len(h.obs) == 0 {
		return 0
	}
	switch h.liar {
	case LiarMin:
		return h.obs[h.best].Value
	case LiarMax:
		max := h.obs[0].Value
		for _, o := range h.obs[1:] {
			if o.Value > max {
				max = o.Value
			}
		}
		return max
	default:
		var sum float64
		for _, o := range h.obs {
			sum += o.Value
		}
		return sum / float64(len(h.obs))
	}
}

// liarVector computes the component-wise fantasy objective vector when
// every observed observation carries a uniform-length vector (the
// condition under which multi-objective engines use them; see
// objective.HistoryVectors), and nil otherwise — a nil keeps the
// degraded all-scalar view consistent between observed and fantasy
// points. All fantasies share the returned slice; it is read-only.
func (h *History) liarVector() []float64 {
	if len(h.obs) == 0 || h.obs[0].Objectives == nil {
		return nil
	}
	m := len(h.obs[0].Objectives)
	for _, o := range h.obs {
		if o.Objectives == nil || len(o.Objectives) != m {
			return nil
		}
	}
	vec := make([]float64, m)
	switch h.liar {
	case LiarMin:
		copy(vec, h.obs[0].Objectives)
		for _, o := range h.obs[1:] {
			for j, v := range o.Objectives {
				if v < vec[j] {
					vec[j] = v
				}
			}
		}
	case LiarMax:
		copy(vec, h.obs[0].Objectives)
		for _, o := range h.obs[1:] {
			for j, v := range o.Objectives {
				if v > vec[j] {
					vec[j] = v
				}
			}
		}
	default:
		for _, o := range h.obs {
			for j, v := range o.Objectives {
				vec[j] += v
			}
		}
		for j := range vec {
			vec[j] /= float64(len(h.obs))
		}
	}
	return vec
}
