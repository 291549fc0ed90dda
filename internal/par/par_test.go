package par

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		n := 101
		hits := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	calls := 0
	For(0, 4, func(int) { calls++ })
	For(-3, 4, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("body called %d times for empty ranges", calls)
	}
	For(1, 8, func(i int) {
		if i != 0 {
			t.Fatalf("unexpected index %d", i)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("single-element range called %d times", calls)
	}
}

func TestChunksPartition(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {10, 1}, {10, 10}, {10, 100}, {1, 4}, {1000, 8}, {7, 0},
	} {
		var total int64
		seen := make([]int32, tc.n)
		nc := NumChunks(tc.n, tc.workers)
		maxChunk := int32(-1)
		var maxMu atomic.Int32
		maxMu.Store(-1)
		Chunks(tc.n, tc.workers, func(c, lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d w=%d: empty chunk [%d,%d)", tc.n, tc.workers, lo, hi)
			}
			atomic.AddInt64(&total, int64(hi-lo))
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
			for {
				cur := maxMu.Load()
				if int32(c) <= cur || maxMu.CompareAndSwap(cur, int32(c)) {
					break
				}
			}
		})
		maxChunk = maxMu.Load()
		if int(total) != tc.n {
			t.Fatalf("n=%d w=%d: covered %d elements", tc.n, tc.workers, total)
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("n=%d w=%d: index %d covered %d times", tc.n, tc.workers, i, s)
			}
		}
		if int(maxChunk)+1 != nc {
			t.Fatalf("n=%d w=%d: NumChunks=%d but max chunk id was %d", tc.n, tc.workers, nc, maxChunk)
		}
	}
}

func TestNumChunksZero(t *testing.T) {
	if got := NumChunks(0, 8); got != 0 {
		t.Fatalf("NumChunks(0, 8) = %d", got)
	}
}

// TestEach checks the repetition loop: every index runs exactly once,
// never more than workers calls at a time, and the error reported is
// the first in index order, not in completion order (index 3 fails
// after index 11 does).
func TestEach(t *testing.T) {
	const n = 17
	for _, workers := range []int{0, 1, 3, 4, 64} {
		var ran [n]atomic.Int32
		var running, peak atomic.Int32
		err := Each(n, workers, func(i int) error {
			now := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			ran[i].Add(1)
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("index %d failed", i)
			case 11:
				return fmt.Errorf("index %d failed", i)
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err == nil || err.Error() != "index 3 failed" {
			t.Fatalf("workers=%d: error = %v, want the index-order-first failure (index 3)", workers, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if p, bound := peak.Load(), int32(resolve(n, workers)); p > bound {
			t.Fatalf("workers=%d: %d calls ran at once, bound %d", workers, p, bound)
		}
	}
	if err := Each(0, 4, func(int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatalf("zero indices: %v", err)
	}
}
