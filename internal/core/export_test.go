package core

import "github.com/hpcautotune/hiperbot/internal/space"

// AddPending fantasizes a copy of c into the pending overlay without a
// lease, for tests of the overlay and of fantasized fits that need no
// AskTell. Already-pending configurations, and rows of the wrong arity,
// which are never members, are a no-op.
func (h *History) AddPending(c space.Config) {
	if len(c) == h.pend.id.arity() {
		h.addPending(c.Clone(), h.pend.id.hash(c))
	}
}

// RemovePending drops c from the overlay (no-op when not pending).
func (h *History) RemovePending(c space.Config) {
	if len(c) == h.pend.id.arity() {
		h.removePending(c, h.pend.id.hash(c))
	}
}
