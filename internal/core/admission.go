package core

import (
	"fmt"

	"obladi/internal/mvtso"
)

// This file implements the proxy's overload-control plane: bounded per-epoch
// batch-slot queues with a high-water admission gate, and fair per-session
// scheduling of the slots that remain.
//
// # Why shed before the schedule
//
// The batch schedule is fixed: an epoch serves exactly R read batches of
// bread slots per shard, whatever clients ask for. Offered load beyond that
// budget has nowhere to go — before this plane existed it piled up on an
// unbounded per-shard queue and waited out the epoch only to be aborted at
// the seal ("read batches exhausted"), so past saturation every excess
// request paid a full epoch of latency for a guaranteed failure and queue
// memory grew with offered load. The admission gate refuses a fetch the
// moment the epoch's remaining slot budget cannot serve it: the refusal is
// immediate (microseconds, not an epoch), retryable (ShedError wraps
// ErrAborted and ErrEpochFull), and carries a Retry-After-style hint (the
// epoch from which capacity exists again).
//
// # Defer before shedding
//
// A transaction that has not touched any data yet is not shed when the
// current epoch cannot serve its first fetch — because the epoch's last read
// batch has fired, its boundary is sealing, or the shard's remaining slots
// are spoken for. It waits for the next epoch to open and begins there with a
// fresh MVTSO timestamp (Txn.bind), exactly as if it had arrived a moment
// later; its first fetch then goes through the gate of that epoch and is shed
// only if that budget is subscribed too. Nothing was lost by waiting: the
// transaction holds no reads or writes, so moving it cannot change what it
// observes, and no transaction waits more than one boundary. Transactions
// that already touched data keep the immediate shed — they cannot leave
// their epoch.
//
// Crucially the gate's decision depends only on proxy-internal state the
// adversary already cannot see — queue length and the schedule position —
// and a shed request never touches the schedule: no slot is consumed, no
// batch fires early, no dummy becomes real. Sheds happen strictly before
// scheduling, so the storage trace keeps the exact workload-independent
// shape it has at any other load. (Compare EagerBatches, which deliberately
// trades that property away; admission control does not.)
//
// # Fair slot scheduling
//
// The admitted queue is drained round-robin over *sessions* (transactions),
// not FIFO over operations: each read batch takes one key per session per
// pass. A single client pipelining thousands of reads therefore cannot
// starve thousands of one-read sessions behind it — they are each served on
// the first pass, and the pipelining session gets exactly the slots nobody
// else wanted. Arrival order still breaks ties, so the schedule stays
// deterministic for tests.

// ErrShed is returned when admission control refuses an operation because
// the current epoch's batch-slot budget is already spoken for. It wraps
// ErrAborted and ErrEpochFull (see ShedError), so every existing retry loop
// treats a shed as the retryable abort it is.
var ErrShed = fmt.Errorf("obladi: request shed by admission control (overload)")

// ShedError is the concrete shed error: a retryable abort carrying a
// Retry-After-style hint. A shed reaches a transaction only when waiting a
// boundary cannot help it: the transaction already touched data in an epoch
// whose slots are spent, or it was already deferred once and the next
// epoch's budget was subscribed as well. RetryEpoch is the first epoch with
// fresh slot budget — the epoch after the one whose budget was exhausted — so
// a co-located retrier can wait for it, and a remote one can treat the hint
// as "back off roughly one epoch".
type ShedError struct {
	// RetryEpoch is the first epoch that has batch-slot budget again.
	RetryEpoch uint64
	// Shard identifies the saturated shard (diagnostics only).
	Shard int
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("%v: shard %d out of read-batch slots, retry at epoch %d", ErrShed, e.Shard, e.RetryEpoch)
}

// Unwrap makes a shed match ErrShed (so callers can apply shed-specific
// backoff), ErrEpochFull (it *is* exhausted epoch capacity, discovered
// early), and ErrAborted (every retry loop in the tree keys off it).
func (e *ShedError) Unwrap() []error {
	return []error{ErrShed, ErrEpochFull, ErrAborted}
}

// sessionFetchQueue holds one session's admitted-but-unscheduled fetch keys,
// in the order the session issued them.
type sessionFetchQueue struct {
	ts   mvtso.Timestamp
	keys []string
}

// admitFetchLocked runs the admission gate for one new fetch key on sh and,
// if admitted, enqueues it under the session's queue. The caller holds
// p.mu. It returns nil on admission and a *ShedError when the epoch's
// remaining read-slot budget is already fully subscribed.
//
// The gate's invariant: the total of admitted-but-unscheduled keys on a
// shard never exceeds the slots its remaining read batches can serve, so
// every admitted fetch is guaranteed a slot this epoch — admission implies
// service, and the only reads that die at the seal are ablation tokens and
// gate-disabled runs.
func (p *Proxy) admitFetchLocked(sh *shard, ts mvtso.Timestamp, key string) error {
	if !p.cfg.DisableAdmission {
		if sh.queuedKeys >= p.readSlotsLeftLocked() {
			p.shedReads.Add(1)
			return &ShedError{RetryEpoch: p.epoch + 1, Shard: sh.id}
		}
	}
	sq := sh.sessQ[ts]
	if sq == nil {
		sq = &sessionFetchQueue{ts: ts}
		sh.sessQ[ts] = sq
		sh.ring = append(sh.ring, sq)
		p.admittedSessions.Add(1)
	}
	sq.keys = append(sq.keys, key)
	sh.pending[key] = true
	sh.queuedKeys++
	return nil
}

// readSlotsLeftLocked is the number of read slots per shard the current
// epoch can still serve: the slots of its unfired read batches, none once
// its boundary has begun to seal. The caller holds p.mu.
func (p *Proxy) readSlotsLeftLocked() int {
	if p.sealing {
		return 0
	}
	return (p.cfg.ReadBatches - p.batchIdx) * p.cfg.ReadBatchSize
}

// servableLocked reports whether the current epoch can serve a fresh
// transaction's first reads, of keys: every distinct key that is neither
// resident nor already pending needs one free slot on its shard. Once the
// epoch's last read batch has fired nothing is servable, not even a resident
// key: the transaction's next read would find no slot. The caller holds
// p.mu.
func (p *Proxy) servableLocked(keys []string) bool {
	if len(keys) == 0 {
		return true
	}
	left := p.readSlotsLeftLocked()
	if left == 0 {
		return false
	}
	need := make([]int, len(p.shards))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		sh := p.shards[shardOf(k, len(p.shards))]
		if seen[k] || sh.fetched[k] || sh.pending[k] {
			continue
		}
		seen[k] = true
		need[sh.id]++
		if sh.queuedKeys+need[sh.id] > left {
			return false
		}
	}
	return true
}

// takeBatchLocked drains up to n keys from sh's session queues for the next
// read batch, round-robin over sessions: one key per live session per pass,
// starting where the previous batch's cursor stopped. The caller holds p.mu.
func (sh *shard) takeBatchLocked(n int) []string {
	if sh.queuedKeys == 0 || n <= 0 {
		return nil
	}
	if n > sh.queuedKeys {
		n = sh.queuedKeys
	}
	keys := make([]string, 0, n)
	i := sh.rr
	for len(keys) < n && len(sh.ring) > 0 {
		if i >= len(sh.ring) {
			i = 0
		}
		sq := sh.ring[i]
		k := sq.keys[0]
		sq.keys = sq.keys[1:]
		keys = append(keys, k)
		delete(sh.pending, k)
		sh.queuedKeys--
		if len(sq.keys) == 0 {
			// The session is drained: drop it from the ring. The next
			// session slides into position i, so the cursor stays put.
			sh.ring = append(sh.ring[:i], sh.ring[i+1:]...)
			delete(sh.sessQ, sq.ts)
		} else {
			i++
		}
	}
	if len(sh.ring) == 0 {
		sh.rr = 0
	} else {
		sh.rr = i % len(sh.ring)
	}
	return keys
}

// resetFetchQueuesLocked clears a shard's admitted fetch state at the epoch
// boundary (or on failure). Waiters are the caller's problem: they live in
// sh.queued, which outlives scheduling state.
func (sh *shard) resetFetchQueuesLocked() {
	sh.sessQ = make(map[mvtso.Timestamp]*sessionFetchQueue)
	sh.ring = sh.ring[:0]
	sh.rr = 0
	sh.pending = make(map[string]bool)
	sh.queuedKeys = 0
}
