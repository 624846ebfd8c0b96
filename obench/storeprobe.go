package main

import (
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/storage"
)

// callKind classifies one storage call for the per-layer tables and the
// trace-shape guard.
type callKind uint8

const (
	kindReadSlots    callKind = iota // ReadSlot, ReadSlots, ReadBucket
	kindWriteBuckets                 // WriteBucket, WriteBuckets
	kindCommitEpoch                  // CommitEpoch, CommitEpochNoSync
	kindWALAppend                    // Append, AppendNoSync
	kindWALSync                      // SyncLog
	kindOther                        // RollbackTo, NumBuckets, Scan, Truncate, LastSeq, KV
	numKinds
)

var kindNames = [numKinds]string{"read_slots", "write_buckets", "commit_epoch", "wal_append", "wal_sync", "other"}

// walKindBatch is the plaintext kind byte the recovery log puts in front of
// a batch-schedule record (internal/wal: record kinds are public framing).
// Batch records are appended on the epoch's critical path, before the reads
// they schedule; checkpoints and commit records ride the commit stage.
const walKindBatch = 1

// storeSpan is one traced storage call.
type storeSpan struct {
	kind   callKind
	shard  int
	epoch  uint64
	start  time.Duration // since the probe's origin
	dur    time.Duration
	bytes  int
	inline bool // a WAL append that is its own durability barrier
	batch  bool // a WAL append of a batch-schedule record
}

// storeProbe collects what one side (the proxy's view, or the storage
// server's) sees of the storage calls of every shard. Byte counts are kept
// in every run; call spans only while tracing is on.
type storeProbe struct {
	origin  time.Time
	tracing *atomic.Bool
	epochOf func() uint64

	bytesRead    atomic.Int64 // slot payload read
	bytesWritten atomic.Int64 // bucket payload written
	walBytes     atomic.Int64 // recovery-log records appended

	mu    sync.Mutex
	spans []storeSpan
}

func newStoreProbe(origin time.Time, tracing *atomic.Bool, epochOf func() uint64) *storeProbe {
	return &storeProbe{origin: origin, tracing: tracing, epochOf: epochOf}
}

// totalBytes is every payload byte that crossed this side's storage
// interface.
func (p *storeProbe) totalBytes() int64 {
	return p.bytesRead.Load() + p.bytesWritten.Load() + p.walBytes.Load()
}

// takeSpans returns and clears the recorded spans.
func (p *storeProbe) takeSpans() []storeSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.spans
	p.spans = nil
	return out
}

// timedStore wraps one shard's backend. It forwards every call unchanged;
// wrapStore re-exposes whichever optional capabilities the inner backend
// has, so the proxy takes exactly the code paths it would take unwrapped.
type timedStore struct {
	inner   storage.Backend
	shard   int
	p       *storeProbe
	batcher bool // inner has LogBatcher: Append is not the only barrier
}

// begin starts timing a call when tracing is on.
func (s *timedStore) begin() (time.Time, bool) {
	if !s.p.tracing.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

// end records a traced call. epoch < 0 asks the probe for the current
// epoch; calls that carry their epoch pass it.
func (s *timedStore) end(t0 time.Time, on bool, kind callKind, epoch int64, bytes int, sp storeSpan) {
	if !on {
		return
	}
	now := time.Now()
	sp.kind, sp.shard, sp.bytes = kind, s.shard, bytes
	sp.start, sp.dur = t0.Sub(s.p.origin), now.Sub(t0)
	if epoch >= 0 {
		sp.epoch = uint64(epoch)
	} else {
		sp.epoch = s.p.epochOf()
	}
	s.p.mu.Lock()
	s.p.spans = append(s.p.spans, sp)
	s.p.mu.Unlock()
}

func slotBytes(slots [][]byte) int {
	n := 0
	for _, s := range slots {
		n += len(s)
	}
	return n
}

func (s *timedStore) ReadSlot(bucket, slot int) ([]byte, error) {
	t0, on := s.begin()
	d, err := s.inner.ReadSlot(bucket, slot)
	s.p.bytesRead.Add(int64(len(d)))
	s.end(t0, on, kindReadSlots, -1, len(d), storeSpan{})
	return d, err
}

func (s *timedStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	t0, on := s.begin()
	d, err := s.inner.ReadSlots(refs)
	n := slotBytes(d)
	s.p.bytesRead.Add(int64(n))
	s.end(t0, on, kindReadSlots, -1, n, storeSpan{})
	return d, err
}

func (s *timedStore) ReadBucket(bucket int) ([][]byte, error) {
	t0, on := s.begin()
	d, err := s.inner.ReadBucket(bucket)
	n := slotBytes(d)
	s.p.bytesRead.Add(int64(n))
	s.end(t0, on, kindReadSlots, -1, n, storeSpan{})
	return d, err
}

func (s *timedStore) WriteBuckets(writes []storage.BucketWrite) error {
	n := 0
	for _, w := range writes {
		n += slotBytes(w.Slots)
	}
	epoch := int64(-1)
	if len(writes) > 0 {
		epoch = int64(writes[0].Epoch)
	}
	t0, on := s.begin()
	err := s.inner.WriteBuckets(writes)
	s.p.bytesWritten.Add(int64(n))
	s.end(t0, on, kindWriteBuckets, epoch, n, storeSpan{})
	return err
}

func (s *timedStore) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	n := slotBytes(slots)
	t0, on := s.begin()
	err := s.inner.WriteBucket(bucket, epoch, slots)
	s.p.bytesWritten.Add(int64(n))
	s.end(t0, on, kindWriteBuckets, int64(epoch), n, storeSpan{})
	return err
}

func (s *timedStore) CommitEpoch(epoch uint64) error {
	t0, on := s.begin()
	err := s.inner.CommitEpoch(epoch)
	s.end(t0, on, kindCommitEpoch, int64(epoch), 0, storeSpan{})
	return err
}

func (s *timedStore) RollbackTo(epoch uint64) error {
	t0, on := s.begin()
	err := s.inner.RollbackTo(epoch)
	s.end(t0, on, kindOther, int64(epoch), 0, storeSpan{})
	return err
}

func (s *timedStore) NumBuckets() (int, error) { return s.inner.NumBuckets() }

func (s *timedStore) Get(key string) ([]byte, bool, error) { return s.inner.Get(key) }
func (s *timedStore) Put(key string, value []byte) error   { return s.inner.Put(key, value) }
func (s *timedStore) Delete(key string) error              { return s.inner.Delete(key) }

func (s *timedStore) Append(record []byte) (uint64, error) {
	t0, on := s.begin()
	seq, err := s.inner.Append(record)
	s.p.walBytes.Add(int64(len(record)))
	s.end(t0, on, kindWALAppend, -1, len(record), storeSpan{
		inline: !s.batcher,
		batch:  len(record) > 0 && record[0] == walKindBatch,
	})
	return seq, err
}

func (s *timedStore) Scan(from uint64) ([][]byte, error) {
	t0, on := s.begin()
	recs, err := s.inner.Scan(from)
	s.end(t0, on, kindOther, -1, slotBytes(recs), storeSpan{})
	return recs, err
}

func (s *timedStore) Truncate(before uint64) error {
	t0, on := s.begin()
	err := s.inner.Truncate(before)
	s.end(t0, on, kindOther, -1, 0, storeSpan{})
	return err
}

func (s *timedStore) LastSeq() (uint64, error) { return s.inner.LastSeq() }

func (s *timedStore) Close() error { return s.inner.Close() }

// logBatcherOf re-exposes storage.LogBatcher through the wrapper.
type logBatcherOf struct {
	s  *timedStore
	lb storage.LogBatcher
}

func (w logBatcherOf) AppendNoSync(record []byte) (uint64, error) {
	t0, on := w.s.begin()
	seq, err := w.lb.AppendNoSync(record)
	w.s.p.walBytes.Add(int64(len(record)))
	w.s.end(t0, on, kindWALAppend, -1, len(record), storeSpan{
		batch: len(record) > 0 && record[0] == walKindBatch,
	})
	return seq, err
}

func (w logBatcherOf) SyncLog() error {
	t0, on := w.s.begin()
	err := w.lb.SyncLog()
	w.s.end(t0, on, kindWALSync, -1, 0, storeSpan{})
	return err
}

// commitBatcherOf re-exposes storage.EpochCommitBatcher. CommitStream
// passes the inner stream through, so the proxy's same-stream check sees
// exactly what it would see unwrapped.
type commitBatcherOf struct {
	s  *timedStore
	cb storage.EpochCommitBatcher
}

func (w commitBatcherOf) CommitEpochNoSync(epoch uint64) error {
	t0, on := w.s.begin()
	err := w.cb.CommitEpochNoSync(epoch)
	w.s.end(t0, on, kindCommitEpoch, int64(epoch), 0, storeSpan{})
	return err
}

func (w commitBatcherOf) CommitStream() any { return w.cb.CommitStream() }

// fenceableOf re-exposes storage.Fenceable; the fenced view is wrapped
// too, so calls through it stay measured.
type fenceableOf struct {
	s *timedStore
	f storage.Fenceable
}

func (w fenceableOf) AcquireFence() (storage.Backend, uint64, error) {
	view, token, err := w.f.AcquireFence()
	if err != nil {
		return nil, 0, err
	}
	return wrapStore(view, w.s.shard, w.s.p), token, nil
}

// wrapStore wraps inner for probe p. The result implements LogBatcher,
// EpochCommitBatcher and Fenceable exactly when inner does: a wrapper that
// hid LogBatcher or EpochCommitBatcher would silently move the proxy off
// the one-fsync boundary it takes on a log-structured heap.
func wrapStore(inner storage.Backend, shard int, p *storeProbe) storage.Backend {
	lb, hasLB := inner.(storage.LogBatcher)
	cb, hasCB := inner.(storage.EpochCommitBatcher)
	f, hasF := inner.(storage.Fenceable)
	s := &timedStore{inner: inner, shard: shard, p: p, batcher: hasLB}
	L, C, F := logBatcherOf{s, lb}, commitBatcherOf{s, cb}, fenceableOf{s, f}
	switch {
	case hasLB && hasCB && hasF:
		return struct {
			*timedStore
			logBatcherOf
			commitBatcherOf
			fenceableOf
		}{s, L, C, F}
	case hasLB && hasCB:
		return struct {
			*timedStore
			logBatcherOf
			commitBatcherOf
		}{s, L, C}
	case hasLB && hasF:
		return struct {
			*timedStore
			logBatcherOf
			fenceableOf
		}{s, L, F}
	case hasCB && hasF:
		return struct {
			*timedStore
			commitBatcherOf
			fenceableOf
		}{s, C, F}
	case hasLB:
		return struct {
			*timedStore
			logBatcherOf
		}{s, L}
	case hasCB:
		return struct {
			*timedStore
			commitBatcherOf
		}{s, C}
	case hasF:
		return struct {
			*timedStore
			fenceableOf
		}{s, F}
	default:
		return s
	}
}
