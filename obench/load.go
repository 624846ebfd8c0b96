package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/kvtxn"
)

// logicalTxn is one generated transaction. do runs one attempt and is
// repeated unchanged on retry: a nil error is an acknowledged commit,
// kvtxn.ErrAborted (conflict, shed, exhausted batch) a retryable refusal,
// and anything else a failure of the system under test. committed records
// the transaction's effect for the correctness gates.
type logicalTxn struct {
	do        func() error
	committed func()
}

// recorder accumulates the load generator's outcomes while a window is
// open. Attempts are counted when they end; each outcome keeps its time so
// a window can be cut into slices.
type recorder struct {
	open  atomic.Bool
	start time.Time

	logical, failed atomic.Int64

	mu       sync.Mutex
	attempts []time.Duration // end of every attempt, since the window opened
	acks     []time.Duration // end of every committed attempt
	lat      []time.Duration // per ack: begin (closed) or scheduled send (open) to ack
	lag      []time.Duration // generator lateness
}

func (r *recorder) attempt(committed bool, lat time.Duration) {
	if !r.open.Load() {
		return
	}
	r.mu.Lock()
	at := time.Since(r.start)
	r.attempts = append(r.attempts, at)
	if committed {
		r.acks = append(r.acks, at)
		r.lat = append(r.lat, lat)
	}
	r.mu.Unlock()
}

func (r *recorder) lagged(d time.Duration) {
	if !r.open.Load() {
		return
	}
	r.mu.Lock()
	r.lag = append(r.lag, d)
	r.mu.Unlock()
}

// window is what one measured window produced.
type window struct {
	dur               time.Duration
	attempts, commits int64
	logical, failed   int64
	attemptAt, ackAt  []time.Duration
	lat, lag          []time.Duration
}

// begin opens a fresh window.
func (r *recorder) begin() {
	r.mu.Lock()
	r.attempts, r.acks, r.lat, r.lag = nil, nil, nil, nil
	r.start = time.Now()
	r.mu.Unlock()
	r.logical.Store(0)
	r.failed.Store(0)
	r.open.Store(true)
}

// end closes the window and returns its contents.
func (r *recorder) end() window {
	r.open.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	return window{
		dur:      time.Since(r.start),
		attempts: int64(len(r.attempts)), commits: int64(len(r.acks)),
		logical: r.logical.Load(), failed: r.failed.Load(),
		attemptAt: r.attempts, ackAt: r.acks, lat: r.lat, lag: r.lag,
	}
}

// loadGen runs a load generator against a stack until stopped.
type loadGen struct {
	rec      recorder
	stopCh   chan struct{}
	wg       sync.WaitGroup
	errMu    sync.Mutex
	err      error        // first failure of the system under test
	epoch    atomic.Int64 // current estimate of one epoch's duration
	maxTries int
}

func newLoadGen(epochGuess time.Duration) *loadGen {
	d := &loadGen{stopCh: make(chan struct{}), maxTries: 200}
	d.epoch.Store(int64(epochGuess))
	return d
}

func (d *loadGen) stopped() bool {
	select {
	case <-d.stopCh:
		return true
	default:
		return false
	}
}

func (d *loadGen) fail(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// stop ends the load and waits for every client to finish its transaction.
func (d *loadGen) stop() error {
	close(d.stopCh)
	d.wg.Wait()
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// runLogical runs one logical transaction to commit, retrying refusals.
// A refusal that came back in under half an epoch (a shed, an exhausted
// write batch) waits about one epoch before the retry, as the ShedError
// hint asks, jittered over 0.5 to 1.5 epochs so that refused clients do
// not all return at the same instant. A conflict abort already waited for
// its epoch boundary and retries at once. since is the latency origin for
// open-loop arrivals (their scheduled send time); closed-loop latency runs
// from each attempt's begin. It reports whether the transaction committed.
func (d *loadGen) runLogical(lt logicalTxn, rng *rand.Rand, since time.Time, deadline time.Time) bool {
	for try := 0; ; try++ {
		t0 := time.Now()
		err := lt.do()
		now := time.Now()
		origin := t0
		if !since.IsZero() {
			origin = since
		}
		d.rec.attempt(err == nil, now.Sub(origin))
		if err == nil {
			if lt.committed != nil {
				lt.committed()
			}
			return true
		}
		if !errors.Is(err, kvtxn.ErrAborted) {
			d.fail(fmt.Errorf("transaction failed: %w", err))
			return false
		}
		if d.stopped() {
			return false
		}
		if try+1 >= d.maxTries || (!deadline.IsZero() && now.After(deadline)) {
			if d.rec.open.Load() {
				d.rec.failed.Add(1)
			}
			return false
		}
		epoch := time.Duration(d.epoch.Load())
		if now.Sub(t0) < epoch/2 {
			time.Sleep(epoch/2 + time.Duration(rng.Int64N(int64(epoch))))
		}
	}
}

// closedLoop starts n clients, each running its next logical transaction
// as soon as the previous one settles.
func (d *loadGen) closedLoop(n int, seed uint64, gen func(rng *rand.Rand) logicalTxn) {
	for c := 0; c < n; c++ {
		d.wg.Add(1)
		go func(c int) {
			defer d.wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			ready := time.Now()
			for !d.stopped() {
				lt := gen(rng)
				d.rec.lagged(time.Since(ready))
				if d.rec.open.Load() {
					d.rec.logical.Add(1)
				}
				d.runLogical(lt, rng, time.Time{}, time.Time{})
				ready = time.Now()
			}
		}(c)
	}
}

// openLoop sends Poisson arrivals at rate per second, each a new
// transaction (a new mux session) that does not wait for earlier ones.
// Arrival times and contents come from seed alone. An arrival still
// uncommitted giveUp after its scheduled time counts as failed.
func (d *loadGen) openLoop(rate float64, seed uint64, giveUp time.Duration, gen func(rng *rand.Rand) logicalTxn) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		rng := rand.New(rand.NewPCG(seed, 0xa77))
		sem := make(chan struct{}, 4096) // arrivals in flight; a full window shows as generator lag
		var inflight sync.WaitGroup
		defer inflight.Wait()
		next := time.Now()
		for i := uint64(0); ; i++ {
			next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
			if wait := time.Until(next); wait > 0 {
				select {
				case <-time.After(wait):
				case <-d.stopCh:
					return
				}
			} else if d.stopped() {
				return
			}
			lt := gen(rand.New(rand.NewPCG(seed, i+1)))
			select {
			case sem <- struct{}{}:
			case <-d.stopCh:
				return
			}
			d.rec.lagged(time.Since(next))
			if d.rec.open.Load() {
				d.rec.logical.Add(1)
			}
			inflight.Add(1)
			go func(scheduled time.Time, i uint64) {
				defer inflight.Done()
				defer func() { <-sem }()
				d.runLogical(lt, rand.New(rand.NewPCG(seed, i+1<<40)), scheduled, scheduled.Add(giveUp))
			}(next, i)
		}
	}()
}
