package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// backend is one way of reaching the tuning sessions of an HTTP-shaped
// workload: over loopback HTTP (the real serving path), directly
// through the session store, or straight into core.AskTell. Every pass
// runs the same closed loop (drive), so every pass sends the same
// traffic and differs only in how far down the stack it enters.
type backend interface {
	suggest(ctx context.Context, session, k int) ([]space.Config, error)
	// observe reports results and returns how many were newly added
	// and the session's evaluation count afterwards.
	observe(ctx context.Context, session int, cfgs []space.Config, values []float64) (added, evals int, err error)
}

// shape is how a workload's clients map onto its sessions.
type shape int

const (
	perSession shape = iota // client i drives session i alone
	roundRobin              // all clients cycle over all sessions
)

// plan is the traffic of one pass.
type plan struct {
	sp       *space.Space
	shape    shape
	sessions int
	clients  int
	batch    int
	// targets[i] is the evaluation count at which session i is done.
	targets []int
	// deadline stops clients from starting new rounds; zero means run
	// until every session reaches its target.
	deadline time.Time
	// record keeps each session's suggestion sequence (perSession only,
	// where the order is deterministic).
	record bool
}

// passResult is what one pass measured.
type passResult struct {
	wall      time.Duration
	ask       samples
	observe   samples
	added     int64
	attempted int64
	failed    int64
	firstErr  error
	suggested int64
	dups      int64
	evals     []int            // per-session evaluation count at the end
	seqs      [][]space.Config // per-session suggestion order (plan.record)
}

// drive runs the plan as a closed loop: each client sends its next
// suggest only after the previous observe returned. A failed request is
// counted and the client moves on to its next round.
func drive(ctx context.Context, p plan, be backend) *passResult {
	res := &passResult{evals: make([]int, p.sessions)}
	if p.record {
		res.seqs = make([][]space.Config, p.sessions)
	}
	var mu sync.Mutex // guards done, busy, cursor, seen, res.evals, res.seqs, res.firstErr
	done := make([]bool, p.sessions)
	busy := make([]bool, p.sessions) // roundRobin: a client is mid-round on the session
	seen := make([]map[string]bool, p.sessions)
	for i := range seen {
		seen[i] = make(map[string]bool)
		done[i] = p.targets[i] <= 0
	}
	cursor := 0
	pick := func(client int) int {
		mu.Lock()
		defer mu.Unlock()
		switch p.shape {
		case perSession:
			if done[client] {
				return -1
			}
			return client
		default:
			for range p.sessions {
				i := cursor % p.sessions
				cursor++
				if !done[i] && !busy[i] {
					busy[i] = true
					return i
				}
			}
			return -1
		}
	}
	release := func(i int) {
		mu.Lock()
		busy[i] = false
		mu.Unlock()
	}
	fail := func(err error) {
		atomic.AddInt64(&res.failed, 1)
		mu.Lock()
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}

	// round runs one suggest → evaluate → observe cycle on session i.
	round := func(i int) {
		atomic.AddInt64(&res.attempted, 1)
		t0 := time.Now()
		cfgs, err := be.suggest(ctx, i, p.batch)
		if err != nil {
			fail(fmt.Errorf("suggest session %d: %w", i, err))
			return
		}
		res.ask.add(time.Since(t0))
		mu.Lock()
		if len(cfgs) == 0 {
			done[i] = true // pool exhausted
		}
		values := make([]float64, len(cfgs))
		for j, cfg := range cfgs {
			values[j] = objective(cfg)
			key := p.sp.Key(cfg)
			if seen[i][key] {
				res.dups++
			}
			seen[i][key] = true
			if p.record {
				res.seqs[i] = append(res.seqs[i], cfg.Clone())
			}
		}
		res.suggested += int64(len(cfgs))
		mu.Unlock()
		if len(cfgs) == 0 {
			return
		}

		atomic.AddInt64(&res.attempted, 1)
		t1 := time.Now()
		added, evals, err := be.observe(ctx, i, cfgs, values)
		if err != nil {
			fail(fmt.Errorf("observe session %d: %w", i, err))
			return
		}
		res.observe.add(time.Since(t1))
		atomic.AddInt64(&res.added, int64(added))
		mu.Lock()
		res.evals[i] = max(res.evals[i], evals)
		if evals >= p.targets[i] {
			done[i] = true
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !p.deadline.IsZero() && time.Now().After(p.deadline) {
					return
				}
				i := pick(c)
				if i < 0 {
					return
				}
				round(i)
				release(i)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// objective is loadgen's synthetic penalty: each dimension prefers a
// different level, with a cross-term so the optimum is not separable.
// Lower is better and the unique optimum scores 0.
func objective(c space.Config) float64 {
	var v float64
	for d := range c {
		target := float64((3*d + 1) % 8)
		diff := c[d] - target
		v += diff * diff
	}
	for d := 1; d < len(c); d++ {
		if c[d] == c[d-1] {
			v += 0.5
		}
	}
	return v
}

// syntheticSpace is a params-dimensional grid of integer levels 0..levels-1.
func syntheticSpace(params, levels int) *space.Space {
	ps := make([]space.Param, params)
	for d := range ps {
		vals := make([]int, levels)
		for v := range vals {
			vals[v] = v
		}
		ps[d] = space.DiscreteInts(fmt.Sprintf("p%d", d), vals...)
	}
	return space.New(ps...)
}
