package core

import (
	"sort"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// FuzzConfigIdentity drives a History's observed set and pending
// overlay, and a per-pick configSet, through arbitrary sequences of
// operations over fuzzValues rows on a space of 1–4 discrete or
// continuous parameters, and checks every step against a reference
// keyed by Space.Key: duplicate rejection and membership agree with
// the keys, a row of the wrong arity is never a member, the overlay
// keeps the reference's swap-remove order, PendingHash is 0 exactly
// when the overlay is empty, and equal pending sets hash alike.
//
// Input: data[0] picks the arity, data[1] the kinds (bit d set =
// parameter d continuous), then each operation is one byte — the low
// three bits pick the operation, the top two bits make the row one
// shorter (2) or longer (3) than the space — followed by one byte per
// value of the row.
func FuzzConfigIdentity(f *testing.F) {
	const (
		opAddObs = iota
		opContains
		opAddPending
		opRemovePending
		opPickAdd
		opPickHas
		opRemovePending2 // more overlay churn
		opAddPending2
	)
	short, long := byte(2<<6), byte(3<<6)
	f.Add([]byte{0, 1, opAddObs, 9, opContains, 10, opAddPending, 10, opRemovePending, 9, opPickAdd, 9, opPickHas, 10})               // NaN payloads: one value
	f.Add([]byte{0, 1, opAddObs, 0, opContains, 1, opAddPending, 1, opAddPending, 0, opRemovePending, 1, opPickAdd, 0, opPickHas, 1}) // +0 and -0: two values
	f.Add([]byte{0, 0, opAddObs, 6, opContains, 2, opAddObs, 2, opAddPending, 7, opRemovePending, 4, opPickAdd, 8, opPickHas, 0})     // fractional levels truncate
	f.Add([]byte{1, 2, opAddObs | short, 1, opAddObs | long, 1, 2, 3, opAddPending | short, 4, opContains | long, 1, 2, 3, opAddObs, 1, 2, opContains | short, 1})
	f.Add([]byte{2, 5, opAddPending, 0, 1, 2, opAddPending, 3, 4, 5, opAddPending, 9, 0, 1, opAddPending, 10, 1, 0, opRemovePending, 0, 1, 2, opRemovePending, 9, 0, 1, opAddPending2, 0, 1, 2})
	f.Add([]byte{3, 10, opAddObs, 0, 0, 0, 0, opAddObs, 1, 0, 0, 0, opAddPending, 0, 1, 0, 0, opAddPending, 9, 10, 1, 0, opRemovePending2, 0, 1, 0, 0, opPickAdd, 0, 0, 0, 0, opPickAdd, 1, 0, 0, 0, opPickHas, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := 1 + int(data[0])%4
		params := make([]space.Param, dims)
		for d := range params {
			name := string(rune('a' + d))
			if data[1]>>d&1 == 1 {
				params[d] = space.Continuous(name, -1, 1)
			} else {
				params[d] = space.DiscreteInts(name, 0, 1, 2, 3)
			}
		}
		sp := space.New(params...)
		h := NewHistory(sp)
		id := h.identity()
		pick := newConfigSet(id, 0)

		observed := map[string]bool{}
		var pendKeys []string // the overlay in order, swap-removed like the History's
		pendConfigs := map[string]space.Config{}
		picked := map[string]bool{}
		hashOf := map[string]uint64{} // canonical pending set → PendingHash seen for it

		ops := data[2:]
		for len(ops) > 0 {
			op := ops[0] & 7
			n := dims
			switch ops[0] >> 6 {
			case 2:
				n = dims - 1
			case 3:
				n = dims + 1
			}
			if len(ops) < 1+n {
				return
			}
			c := make(space.Config, n)
			for d := range c {
				c[d] = fuzzValues[int(ops[1+d])%len(fuzzValues)]
			}
			ops = ops[1+n:]
			member := n == dims
			key := ""
			if member {
				key = sp.Key(c)
			}

			switch op {
			case opAddObs:
				err := h.AddObs(Observation{Config: c, Value: 1})
				if want := member && !observed[key]; (err == nil) != want {
					t.Fatalf("AddObs(%v) err = %v, want accepted = %v", c, err, want)
				}
				if member {
					observed[key] = true
				}
				if h.Len() != len(observed) {
					t.Fatalf("Len = %d after AddObs(%v), reference holds %d", h.Len(), c, len(observed))
				}
			case opContains:
				if got := h.Contains(c); got != (member && observed[key]) {
					t.Fatalf("Contains(%v) = %v, reference %v", c, got, member && observed[key])
				}
			case opAddPending, opAddPending2:
				h.AddPending(c)
				if member && pendConfigs[key] == nil {
					pendKeys = append(pendKeys, key)
					pendConfigs[key] = c.Clone()
				}
			case opRemovePending, opRemovePending2:
				h.RemovePending(c)
				if member && pendConfigs[key] != nil {
					i := indexOf(pendKeys, key)
					pendKeys[i] = pendKeys[len(pendKeys)-1]
					pendKeys = pendKeys[:len(pendKeys)-1]
					delete(pendConfigs, key)
				}
			case opPickAdd, opPickHas:
				if !member {
					continue // the per-pick set only sees draws of the space's arity
				}
				hc := id.hash(c)
				if got := pick.has(c, hc); got != picked[key] {
					t.Fatalf("per-pick has(%v) = %v, reference %v", c, got, picked[key])
				}
				if got := h.has(c, hc); got != observed[key] {
					t.Fatalf("History.has(%v) = %v with the draw's hash, reference %v", c, got, observed[key])
				}
				if op == opPickAdd {
					if got := pick.add(c, hc); got != !picked[key] {
						t.Fatalf("per-pick add(%v) = %v, reference new = %v", c, got, !picked[key])
					}
					picked[key] = true
				}
			}

			if h.PendingLen() != len(pendKeys) {
				t.Fatalf("PendingLen = %d, reference %d", h.PendingLen(), len(pendKeys))
			}
			for i, pc := range h.pend.rows {
				if got := sp.Key(pc); got != pendKeys[i] {
					t.Fatalf("overlay row %d is %s, reference %s", i, got, pendKeys[i])
				}
			}
			if (h.PendingHash() == 0) != (len(pendKeys) == 0) {
				t.Fatalf("PendingHash = %#x with %d pending", h.PendingHash(), len(pendKeys))
			}
			set := strings.Join(sortedCopy(pendKeys), "\n")
			if prev, ok := hashOf[set]; ok && prev != h.PendingHash() {
				t.Fatalf("pending set %q hashed %#x, earlier %#x", set, h.PendingHash(), prev)
			}
			hashOf[set] = h.PendingHash()
		}

		// The same pending set added in another order hashes alike.
		fresh := NewHistory(sp)
		for _, key := range sortedCopy(pendKeys) {
			fresh.AddPending(pendConfigs[key])
		}
		if fresh.PendingHash() != h.PendingHash() {
			t.Fatalf("equal pending sets hash %#x and %#x", fresh.PendingHash(), h.PendingHash())
		}
	})
}

func indexOf(keys []string, key string) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

func sortedCopy(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// TestConfigIndexRemoveKeepsProbeRuns fills a 16-slot index with eight
// rows whose home slots are its last three, so the probe run wraps
// around, and removes them in every rotation of their order: each
// removal must leave every remaining row findable (backward-shift
// deletion across the wrap) and renumber the row moved into the hole.
func TestConfigIndexRemoveKeepsProbeRuns(t *testing.T) {
	sp := space.New(space.Continuous("x", -1e9, 1e9))
	var rows []space.Config
	set := newConfigSet(newIdentity(sp), 0)
	mask := uint64(tableSize(8) - 1)
	for v := 0.0; len(rows) < 8; v++ {
		if c := (space.Config{v}); set.id.hash(c)&mask >= mask-2 {
			rows = append(rows, c)
		}
	}
	for rot := range rows {
		s := newConfigSet(set.id, len(rows))
		for _, c := range rows {
			s.add(c, s.id.hash(c))
		}
		order := append(append([]space.Config(nil), rows[rot:]...), rows[:rot]...)
		for i, c := range order {
			if s.remove(c, s.id.hash(c)) < 0 {
				t.Fatalf("rotation %d: remove(%v) found nothing", rot, c)
			}
			for j, rest := range order {
				want := j > i
				if got := s.has(rest, s.id.hash(rest)); got != want {
					t.Fatalf("rotation %d, after removing %d rows: has(%v) = %v, want %v", rot, i+1, rest, got, want)
				}
			}
			for r, c := range s.rows {
				if got := s.lookup(c, s.id.hash(c), s.row); got != r {
					t.Fatalf("rotation %d: row %d (%v) indexed as %d", rot, r, c, got)
				}
			}
		}
	}
}
