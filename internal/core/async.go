package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"obladi/internal/mvtso"
)

// This file implements the asynchronous read plane of the client API: a
// transaction can register its whole read set with ReadAsync before the first
// read batch fires, then resolve the Futures as batches execute. The
// synchronous Read/ReadMany paths are thin wrappers over it.
//
// Asynchrony changes nothing the storage side observes: a Future only
// registers the key on its shard's fetch queue, exactly as a blocking Read
// would, and the fixed batch schedule executes regardless of who is waiting.
// In particular, cancelling a Future (or the transaction's context) aborts
// the MVTSO transaction but leaves the queued slot in place — it executes as
// a dummy from the schedule's point of view, so cancellation is invisible in
// the trace.

// BeginCtx starts a transaction bound to ctx. Cancellation or deadline
// expiry aborts the transaction at its next operation, and unblocks Future
// waits and Commit instead of letting them wait out the epoch. The proxy's
// oblivious schedule is unaffected: slots the transaction already queued
// still execute (as dummies).
func (p *Proxy) BeginCtx(ctx context.Context) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	return &Txn{p: p, inner: p.ccu.Begin(), epoch: epoch, ctx: ctx}
}

// Future is the pending result of a ReadAsync. It resolves when the read's
// batch executes (or the transaction dies first). A Future belongs to its
// transaction's epoch like every other operation: if the epoch ends before
// the batch serves it, Wait reports the abort.
//
// Wait may be called from a different goroutine than the transaction's, and
// multiple Futures of one transaction may be waited concurrently; concurrent
// Waits on the *same* Future are serialized.
type Future struct {
	t   *Txn
	key string

	mu       sync.Mutex
	ch       <-chan error // pending fetch; nil once consumed or when resident
	hadFetch bool         // this future's read queued the key's real fetch
	done     bool
	value    []byte
	found    bool
	err      error
}

// ReadAsync registers a read of key and returns immediately — unless it is
// the transaction's first operation and the current epoch cannot serve it:
// then it first waits for the next epoch to open (see Txn.bind). The
// returned Future resolves when the key's base version is resident (for keys
// already fetched this epoch, immediately). Issuing a transaction's
// independent reads through ReadAsync before the first Wait packs them into
// the same read batch, like ReadMany, without requiring the key set up
// front.
func (t *Txn) ReadAsync(key string) *Future {
	f := &Future{t: t, key: key}
	if err := t.check(key, true); err != nil {
		f.done, f.err = true, err
		return f
	}
	f.ch = t.p.queueFetch(t.epoch, t.inner.TS(), key)
	f.hadFetch = f.ch != nil
	return f
}

// Value resolves the Future under the transaction's own context (Background
// for Begin). Equivalent to Wait with that context.
func (f *Future) Value() ([]byte, bool, error) {
	return f.Wait(f.t.ctx)
}

// Wait blocks until the Future resolves or ctx is done, whichever is first.
// A nil ctx means the transaction's own context (Background for Begin). On
// cancellation the transaction aborts (its queued batch slots still execute
// as dummies) and Wait returns an error matching both ErrAborted and the
// context's error.
func (f *Future) Wait(ctx context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return f.value, f.found, f.err
	}
	t := f.t
	if ctx == nil {
		ctx = t.ctx
	}
	for {
		if f.ch != nil {
			select {
			case err := <-f.ch:
				f.ch = nil
				if err != nil {
					t.inner.Abort()
					return f.resolve(nil, false, err)
				}
			case <-ctx.Done():
				t.inner.Abort()
				return f.resolve(nil, false, fmt.Errorf("%w: %w", ErrAborted, context.Cause(ctx)))
			case <-t.ctx.Done():
				t.inner.Abort()
				return f.resolve(nil, false, fmt.Errorf("%w: %w", ErrAborted, context.Cause(t.ctx)))
			}
		}
		if t.p.cfg.DisableReadCache && !f.hadFetch {
			// Ablation (§6.3): a version-cache hit still consumes a read-batch
			// slot. A future that carried the key's real fetch already paid
			// with that slot. The payment waits through the same select as a
			// fetch, so cancellation unblocks it too; payCacheSlot marks the
			// slot paid, making the next loop iteration skip this branch.
			if ch := t.payCacheSlot(f.key); ch != nil {
				f.ch = ch
				continue
			}
		}
		v, found, err := t.inner.Read(f.key)
		switch {
		case err == nil:
			if !f.hadFetch {
				t.p.cacheHits.Add(1)
			}
			return f.resolve(v, found, nil)
		case errors.Is(err, mvtso.ErrNeedFetch):
			// The version cache no longer holds the base (possible only
			// across batch races); queue again and keep waiting.
			f.ch = t.p.queueFetch(t.epoch, t.inner.TS(), f.key)
			f.hadFetch = f.hadFetch || f.ch != nil
		case errors.Is(err, mvtso.ErrAborted):
			return f.resolve(nil, false, fmt.Errorf("%w: %v", ErrAborted, err))
		default:
			return f.resolve(nil, false, err)
		}
	}
}

// resolve records the Future's final value; the caller holds f.mu.
func (f *Future) resolve(value []byte, found bool, err error) ([]byte, bool, error) {
	f.done = true
	f.value, f.found, f.err = value, found, err
	return value, found, err
}
