// Package core implements the Obladi proxy — the paper's primary
// contribution (§5–§8): a trusted coordinator that runs serializable
// transactions over an oblivious store while revealing nothing about the
// workload beyond a fixed, deterministic batch schedule.
//
// Time is partitioned into epochs. Each epoch issues R fixed-size read
// batches at a fixed interval Δ followed by one fixed-size write batch;
// batches are padded with dummy requests and deduplicated, so the storage
// server observes the same request pattern whatever the transactions do.
// Transactions execute under MVTSO against a version cache; commit decisions
// are delayed to the epoch boundary (delayed visibility), where the epoch's
// final write set is flushed to the ORAM, metadata is checkpointed to the
// recovery unit, and clients are notified.
//
// # Pipelined epoch boundary
//
// The boundary is split into a cheap synchronous seal (decide fates, execute
// the write batch, detach each shard's buffered write-back set, snapshot the
// checkpoint) and a commit stage (flush, durable appends, storage epoch
// commit, client acks) that can run on a background committer, overlapping
// epoch e's write-back and durability round trips with epoch e+1's read
// batches. Delayed visibility makes the overlap safe: clients were only ever
// acknowledged at the boundary, so acknowledging them when the asynchronous
// commit lands changes nothing they can observe, and reads of e+1 that land
// on a not-yet-flushed bucket are served from the sealed buffer. At most one
// boundary is in flight; see BoundaryMode.
//
// # Sharding
//
// The proxy can partition its key space by hash across N independent Ring
// ORAM instances ("shards"), each with its own position map, stash, batch
// scheduler quota, recovery log, and storage backend. MVTSO timestamps stay
// global, so a transaction spanning shards is still serialized once and
// commits (or aborts) atomically at the global epoch boundary. Every shard
// issues exactly R read batches of bread slots and one write batch of bwrite
// slots per epoch regardless of where keys hash, so each shard's observable
// schedule remains workload independent and the shard-selection hash leaks
// nothing beyond what the single-ORAM design already leaked.
//
// Cross-shard durability uses a coordinator-commit protocol: at the epoch
// boundary every shard flushes and appends its checkpoint (prepare), and only
// then are commit records appended, shard 0 first. Shard 0's commit record is
// the global commit point; recovery reads shard 0's committed epoch and
// recovers every other shard with that epoch as a floor (a shard can lag the
// coordinator by at most its own commit record, and its checkpoint for the
// committed epoch is already durable).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/cryptoutil"
	"obladi/internal/mvtso"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// Public errors.
var (
	// ErrAborted is returned when a transaction aborts (conflict, cascading
	// abort, epoch boundary, or proxy shutdown).
	ErrAborted = errors.New("obladi: transaction aborted")
	// ErrEpochFull is returned when an epoch ran out of read-batch slots or
	// write-batch capacity for this transaction.
	ErrEpochFull = errors.New("obladi: epoch capacity exhausted")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("obladi: proxy closed")
	// ErrValueTooLarge is returned for values exceeding the ORAM block size.
	ErrValueTooLarge = errors.New("obladi: value exceeds configured ValueSize")
)

// Config assembles a proxy. The batching parameters mirror Table 1 of the
// paper (reproduced in DESIGN.md): R read batches of size bread issued every
// Δ, one write batch of size bwrite. In a sharded proxy every parameter is
// per shard: each shard issues R batches of bread and one write batch of
// bwrite per epoch.
type Config struct {
	// Params configures the underlying Ring ORAM. In a sharded proxy every
	// shard uses this geometry (NumBlocks is per-shard capacity); a non-zero
	// Seed is decorrelated per shard.
	Params ringoram.Params
	// Key encrypts ORAM slots and recovery records. Required unless
	// Params.DisableEncryption is set.
	Key *cryptoutil.Key

	// ReadBatches is R, the number of read batches per epoch (default 4).
	ReadBatches int
	// ReadBatchSize is bread (default 32).
	ReadBatchSize int
	// WriteBatchSize is bwrite (default 32).
	WriteBatchSize int
	// BatchInterval is Δ. Zero selects manual mode: the caller drives
	// batches with StepReadBatch/EndEpoch (tests, deterministic examples).
	BatchInterval time.Duration
	// EagerBatches fires a read batch as soon as one shard's batch fills
	// instead of waiting out Δ. The batch schedule then tracks offered load,
	// which is observable; the paper keeps the schedule fixed, so this knob
	// exists for throughput experiments only.
	EagerBatches bool

	// Parallelism caps concurrent storage operations on the scalar I/O
	// path (per shard); the vectored path issues one call per stage.
	Parallelism int
	// ScalarStorageIO disables the executor's scatter-gather storage calls:
	// every slot read and write-back bucket becomes its own storage call,
	// as before vectorization. Baseline knob for the `vector` benchmark.
	ScalarStorageIO bool
	// WriteThrough disables delayed write-back (Figure 10d ablation).
	WriteThrough bool
	// DisableReadCache makes repeat reads of an epoch-resident key consume
	// a fresh batch slot instead of being served from the version cache
	// (§6.3 ablation).
	DisableReadCache bool

	// Boundary controls epoch-boundary pipelining: whether EndEpoch's
	// commit stage (buffered-bucket flush, checkpoint and commit-record
	// appends, storage epoch commit) overlaps the next epoch's read
	// batches or runs inline. Default BoundaryAuto.
	Boundary BoundaryMode

	// DisableDurability skips the recovery unit entirely (microbenchmarks
	// that isolate ORAM throughput; Figure 10 runs without durability).
	DisableDurability bool
	// FullCheckpointEvery is the full-checkpoint cadence (Figure 11a).
	FullCheckpointEvery int

	// Replicator, when set, mirrors every recovery-log append to a hot
	// standby and gates boundary acks on its Barrier (see Replicator).
	// Ignored with DisableDurability — the WAL is the replication stream,
	// so no WAL means nothing to replicate.
	Replicator Replicator

	// DisableAdmission turns off the overload-control admission gate
	// (admission.go): fetches queue without bound again, no transaction is
	// deferred to the next epoch, and excess load dies at the epoch seal
	// with ErrEpochFull instead of being deferred or shed with a retry
	// hint. Ablation/back-compat knob; fair per-session scheduling stays on
	// either way.
	DisableAdmission bool
}

// BoundaryMode selects how an epoch boundary's commit stage runs relative
// to the next epoch's read batches. The boundary is always split into a
// cheap synchronous seal (fate decisions, write batch, buffer detach,
// checkpoint snapshot) and a commit (flush, durable appends, storage epoch
// commit, client acks); the mode decides where the commit executes.
type BoundaryMode int

const (
	// BoundaryAuto pipelines boundaries in timer-driven mode
	// (BatchInterval > 0) and keeps them synchronous under manual driving,
	// where single-stepped determinism is the point.
	BoundaryAuto BoundaryMode = iota
	// BoundarySync runs the commit stage inline: EndEpoch returns only
	// after the epoch is durable and its clients are notified. This is the
	// paper's synchronous boundary and the `pipeline` benchmark baseline.
	BoundarySync
	// BoundaryPipelined hands the commit stage to a background committer
	// even under manual driving, so epoch e's write-back and durability
	// round trips overlap epoch e+1's read batches. At most one boundary
	// is in flight: the next EndEpoch waits for the previous commit to
	// land (back-pressure).
	BoundaryPipelined
)

func (c *Config) setDefaults() error {
	if c.ReadBatches <= 0 {
		c.ReadBatches = 4
	}
	if c.ReadBatchSize <= 0 {
		c.ReadBatchSize = 32
	}
	if c.WriteBatchSize <= 0 {
		c.WriteBatchSize = 32
	}
	if c.Key == nil && !c.Params.DisableEncryption {
		return errors.New("core: nil key with encryption enabled")
	}
	return nil
}

// Stats is a snapshot of proxy counters. Executor counters are summed across
// shards; StashPeak is the maximum over shards.
type Stats struct {
	Shards           int
	Epochs           uint64
	Committed        uint64
	Aborted          uint64
	ReadBatchSlots   uint64 // total read-batch slots issued (all shards)
	RealReads        uint64 // slots carrying real requests
	CacheHits        uint64 // reads served from the version cache
	WriteSlots       uint64
	RealWrites       uint64
	ConflictAborts   int64
	CascadingAborts  int64
	Executor         oramexec.Stats
	StashPeak        int
	RecoveryReplayed int

	// Overload-control counters (admission.go). ShedReads counts fetches
	// refused by the admission gate; DeferredTxns counts transactions that
	// waited for the next epoch instead of being shed; AdmittedSessions
	// counts sessions that were granted at least one batch slot;
	// ReadQueueDepth is the current number of admitted-but-unscheduled fetch
	// keys across shards (a gauge, bounded by the gate at shards × R ×
	// bread).
	ShedReads        uint64
	DeferredTxns     uint64
	AdmittedSessions uint64
	ReadQueueDepth   int
}

// fetchWaiter is one transaction blocked on a base-version fetch.
type fetchWaiter struct {
	key  string
	done chan error
}

// shard is one key-space partition: an independent Ring ORAM with its own
// executor, recovery log, storage backend, and per-epoch batch bookkeeping.
type shard struct {
	id    int
	store storage.Backend
	exec  *oramexec.Executor
	rlog  *wal.Log

	// The fields below are guarded by Proxy.mu.

	// Admitted fetch scheduling (admission.go): sessQ/ring hold each
	// session's queued keys in arrival order for round-robin draining,
	// pending dedups keys already scheduled for a fetch this epoch, and
	// queuedKeys counts admitted-but-unscheduled keys (the quantity the
	// admission gate bounds). Waiters live in queued, keyed by key, and
	// are woken when the key's base version installs.
	sessQ      map[mvtso.Timestamp]*sessionFetchQueue
	ring       []*sessionFetchQueue
	rr         int
	pending    map[string]bool
	queuedKeys int
	queued     map[string][]*fetchWaiter
	fetched    map[string]bool // keys whose base version is resident
}

// shardOf routes a key to one of n shards by FNV-1a hash. The mapping is
// public (the adversary may know it); it leaks nothing because every shard's
// request schedule is fixed regardless of routing.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Proxy is the Obladi trusted proxy.
type Proxy struct {
	cfg    Config
	shards []*shard
	ccu    *mvtso.Manager
	// unified, when non-nil, holds every shard's EpochCommitBatcher face:
	// the stores retire epochs with records on the SAME physical append
	// stream as the recovery log, so the boundary commit can collapse to a
	// single flush wave (see commitUnified). nil selects the inline path.
	unified []storage.EpochCommitBatcher

	// tees are the per-shard replication taps on the recovery logs (nil
	// without a Replicator); armed once primeReplicator has seeded history.
	tees []*replTee

	mu       sync.Mutex
	closed   bool
	draining bool // Shutdown in progress: the epoch loop stops driving
	epoch    uint64
	batchIdx int  // read batches already issued this epoch
	sealing  bool // the current epoch's boundary has begun; no slot is left
	// epochOpen is closed (and replaced) whenever an epoch opens or the
	// proxy closes, waking transactions deferred to the next epoch.
	epochOpen chan struct{}

	// commit waiters, by transaction timestamp.
	waiters map[mvtso.Timestamp]chan error

	// inflight is the sealed boundary whose commit stage has not landed
	// (guarded by mu; at most one). boundaryDone is signaled whenever it
	// clears or the proxy closes, waking a boundary blocked on
	// back-pressure. committers tracks background commit goroutines so
	// Close can drain them.
	inflight     *boundaryJob
	boundaryDone *sync.Cond
	committers   sync.WaitGroup

	kick      chan struct{} // wakes the epoch loop (eager batches, close)
	loop      sync.WaitGroup
	ablateSeq uint64 // unique tokens for the DisableReadCache ablation

	// Client-path counters. Atomics: they are counted on the client-facing
	// fast path and read by Stats snapshots concurrently with batch
	// execution.
	shedReads        atomic.Uint64
	deferredTxns     atomic.Uint64
	admittedSessions atomic.Uint64
	cacheHits        atomic.Uint64

	stats        Stats
	replayedLast int

	// testCommitHook, when set (tests only), runs after each shard's commit
	// record is appended; returning an error simulates a crash torn across
	// the coordinator-commit protocol.
	testCommitHook func(shardID int) error
}

// New creates a single-shard proxy over the given backend, initializing (or
// recovering) the ORAM. If the backend's recovery log already holds a
// committed checkpoint, New recovers from it instead of reinitializing — so
// restarting a crashed proxy against the same storage is exactly Obladi's §8
// recovery.
func New(store storage.Backend, cfg Config) (*Proxy, error) {
	return NewSharded([]storage.Backend{store}, cfg)
}

// NewSharded creates a proxy whose key space is hash-partitioned across
// len(stores) shards, one Ring ORAM per backend. Every shard runs the same
// per-shard configuration (geometry, batch quotas, recovery cadence). Like
// New, it recovers instead of reinitializing when the coordinator shard's
// recovery log holds a committed checkpoint.
func NewSharded(stores []storage.Backend, cfg Config) (*Proxy, error) {
	p, err := newProxy(stores, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.bootstrap(); err != nil {
		return nil, err
	}
	return p.start()
}

// NewShardedFromRecoveries builds a proxy from pre-built recovery states
// instead of scanning the stores' logs: the promotion path of hot-standby
// failover (internal/replica), where the standby has already run
// wal.Recover/RecoverWithFloor over its warm, locally replicated copy of
// every shard's log. recs must be per-shard and coordinator-first, exactly
// what the cold path's phase 1 would have produced; phase 2 (rollback,
// state rebuild, deterministic replay, recovery-epoch commit) then runs
// unchanged against the given stores, so a promoted standby and a
// cold-restarted proxy reach identical state by construction.
func NewShardedFromRecoveries(stores []storage.Backend, cfg Config, recs []*wal.Recovery) (*Proxy, error) {
	p, err := newProxy(stores, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DisableDurability {
		return nil, errors.New("core: recovery injection needs durability enabled")
	}
	if len(recs) != len(stores) {
		return nil, fmt.Errorf("core: %d recoveries for %d stores", len(recs), len(stores))
	}
	if !recs[0].HasCommit {
		return nil, errors.New("core: coordinator recovery has no commit record")
	}
	if err := p.recoverFromRecoveries(recs); err != nil {
		return nil, err
	}
	return p.start()
}

// newProxy runs the construction shared by every entry point: validation,
// shard assembly, recovery-unit creation (tee-wrapped when replicating), and
// the unified-commit probe. The caller then bootstraps or injects recovery
// state and calls start.
func newProxy(stores []storage.Backend, cfg Config) (*Proxy, error) {
	if len(stores) == 0 {
		return nil, errors.New("core: at least one storage backend required")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:       cfg,
		ccu:       mvtso.NewManager(),
		waiters:   make(map[mvtso.Timestamp]chan error),
		kick:      make(chan struct{}, 1),
		epochOpen: make(chan struct{}),
	}
	p.boundaryDone = sync.NewCond(&p.mu)
	for i, st := range stores {
		sh := &shard{
			id:      i,
			store:   st,
			sessQ:   make(map[mvtso.Timestamp]*sessionFetchQueue),
			pending: make(map[string]bool),
			queued:  make(map[string][]*fetchWaiter),
			fetched: make(map[string]bool),
		}
		if !cfg.DisableDurability {
			var logStore storage.LogStore = st
			if cfg.Replicator != nil {
				tapped, tee := newReplTee(st, i, cfg.Replicator)
				logStore = tapped
				p.tees = append(p.tees, tee)
			}
			wcfg, err := WALConfigFor(cfg, i, len(stores))
			if err != nil {
				return nil, err
			}
			l, err := wal.New(logStore, wcfg)
			if err != nil {
				return nil, err
			}
			sh.rlog = l
		}
		p.shards = append(p.shards, sh)
	}
	if !cfg.DisableDurability {
		p.unified = unifiedCommitStores(stores)
	}
	// Write-batch capacity is enforced inside the CCU, under the lock that
	// also finalizes epochs: a write admitted into a CCU generation is
	// charged against that generation's budget, so boundary races cannot
	// oversubscribe the write batch (see mvtso.SetWriteBudget).
	nshards := len(p.shards)
	p.ccu.SetWriteBudget(nshards, cfg.WriteBatchSize, func(key string) int {
		return shardOf(key, nshards)
	})
	return p, nil
}

// start arms replication and launches the epoch loop once the proxy's state
// is built (bootstrap or injected recovery).
func (p *Proxy) start() (*Proxy, error) {
	if err := p.primeReplicator(); err != nil {
		return nil, err
	}
	if p.cfg.BatchInterval > 0 {
		p.loop.Add(1)
		go p.epochLoop()
	}
	return p, nil
}

// Shards reports the number of key-space partitions.
func (p *Proxy) Shards() int { return len(p.shards) }

// shardParams returns shard i's ORAM parameters: the shared geometry with a
// decorrelated deterministic seed (tests only; a zero seed stays random).
func (p *Proxy) shardParams(i int) ringoram.Params {
	sp := p.cfg.Params
	if sp.Seed != 0 {
		sp.Seed += uint64(i)
	}
	return sp
}

// beginEpochAllLocked opens p.epoch on every shard's executor.
func (p *Proxy) beginEpochAllLocked() {
	for _, sh := range p.shards {
		sh.exec.BeginEpoch(p.epoch)
	}
}

// syncLogsParallel runs one Sync round: every shard without an earlier
// error flushes its recovery log's deferred appends, concurrently. On a
// shared physical log the first Sync's fsync covers every shard and the
// rest return without touching the disk; on independent stores the barriers
// at least overlap. Errors land in errs[i].
func (p *Proxy) syncLogsParallel(shs []*shard, errs []error) {
	var wg sync.WaitGroup
	for i := range shs {
		if errs[i] != nil || shs[i].rlog == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = shs[i].rlog.Sync()
		}(i)
	}
	wg.Wait()
}

// appendCommitAll appends the epoch's commit records, coordinator (shard 0)
// first: the coordinator's record is the global commit point and pays a
// real durability barrier. The other shards' records merely let a shard
// recover without consulting the coordinator's floor — losing one costs a
// floor lookup, not correctness — so they are appended deferred and ride
// whatever flush comes next (the storage-epoch commits that follow, or the
// next epoch's barriers) instead of each paying an fsync.
func (p *Proxy) appendCommitAll(epoch uint64) error {
	commitHook := func(sh *shard) error {
		if p.testCommitHook != nil {
			return p.testCommitHook(sh.id)
		}
		return nil
	}
	if err := p.shards[0].rlog.AppendCommit(epoch); err != nil {
		return err
	}
	if err := commitHook(p.shards[0]); err != nil {
		return err
	}
	for _, sh := range p.shards[1:] {
		if err := sh.rlog.AppendCommitDeferred(epoch); err != nil {
			return err
		}
		if err := commitHook(sh); err != nil {
			return err
		}
	}
	return nil
}

// unifiedCommitStores probes for the single-barrier boundary commit: every
// store must batch epoch commits onto its recovery-log stream
// (EpochCommitBatcher), and in a sharded proxy all shards must share ONE
// physical stream — prefix durability, which is what orders a shard's heap
// commit after the coordinator's WAL commit record without a barrier between
// them, only exists within one physical log. Anything else returns nil and
// the boundary keeps the inline commit path, whose explicit barrier order
// provides the same guarantees at more fsync waves.
func unifiedCommitStores(stores []storage.Backend) []storage.EpochCommitBatcher {
	out := make([]storage.EpochCommitBatcher, len(stores))
	var stream any
	for i, st := range stores {
		ecb, ok := st.(storage.EpochCommitBatcher)
		if !ok {
			return nil
		}
		if i == 0 {
			stream = ecb.CommitStream()
		} else if ecb.CommitStream() != stream {
			return nil
		}
		out[i] = ecb
	}
	return out
}

// bootstrap initializes fresh ORAMs or recovers from the durability logs.
func (p *Proxy) bootstrap() error {
	coord := p.shards[0]
	if coord.rlog != nil {
		rec, err := coord.rlog.Recover()
		switch {
		case err == nil && rec.HasCommit:
			return p.recover(rec)
		case err == nil:
			// Checkpoints but no commit record anywhere: a first boot that
			// died between baseline checkpoints. Nothing committed and a
			// lagging shard's log may be empty — reinitialize rather than
			// recover (the stale checkpoint is superseded by the fresh one).
		case errors.Is(err, wal.ErrNoCheckpoint):
			// Fresh deployment.
		default:
			return err
		}
	}
	for i, sh := range p.shards {
		oram, err := oramexec.InitORAM(sh.store, p.cfg.Key, p.shardParams(i))
		if err != nil {
			return err
		}
		sh.exec = oramexec.New(oram, sh.store, oramexec.Config{
			Parallelism:  p.cfg.Parallelism,
			WriteThrough: p.cfg.WriteThrough,
			ScalarIO:     p.cfg.ScalarStorageIO,
		})
	}
	p.epoch = 1
	p.beginEpochAllLocked()
	if coord.rlog != nil {
		// Baseline checkpoints so a crash before the first epoch commits
		// recovers to an empty store. Prepare everywhere, then commit.
		for _, sh := range p.shards {
			if _, err := sh.rlog.AppendCheckpoint(0, sh.exec.ORAM()); err != nil {
				return err
			}
		}
		if err := p.appendCommitAll(0); err != nil {
			return err
		}
	}
	return nil
}

// recover implements §8 across all shards: roll each shadow-paged tree back
// to the last globally committed epoch (the coordinator's), rebuild proxy
// metadata from per-shard checkpoints, deterministically replay each shard's
// logged reads from the aborted epoch, and commit the replay as a recovery
// epoch under the same coordinator-commit protocol.
func (p *Proxy) recover(coordRec *wal.Recovery) error {
	committed := coordRec.CommittedEpoch
	// Phase 1: per-shard log reconstruction. No cross-shard dependency once
	// the committed epoch is known, so it runs concurrently.
	recs := make([]*wal.Recovery, len(p.shards))
	recs[0] = coordRec
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(p.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := p.shards[i].rlog.RecoverWithFloor(committed)
			if err != nil {
				errs[i] = fmt.Errorf("core: recovering shard %d: %w", i, err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return p.recoverFromRecoveries(recs)
}

// recoverFromRecoveries is recovery phase 2, shared by the cold path above
// and the hot-standby promotion path (NewShardedFromRecoveries, which built
// recs from its replicated log copies instead of scanning storage): rollback,
// state rebuild, deterministic replay, and the recovery-epoch commit.
func (p *Proxy) recoverFromRecoveries(recs []*wal.Recovery) error {
	committed := recs[0].CommittedEpoch
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	// The recovery epoch must cover every logged epoch of the dead
	// generation: the pipelined boundary can leave batch records of
	// committed+1 AND committed+2 behind, and the next generation reuses
	// epoch numbers starting after the recovery epoch. Committing the
	// replay under the highest aborted epoch seen on ANY shard pushes the
	// stale records at or below the committed floor, so a later crash can
	// never replay this generation again.
	recoveryEpoch := committed + 1
	for _, rec := range recs {
		if rec.MaxAbortedEpoch > recoveryEpoch {
			recoveryEpoch = rec.MaxAbortedEpoch
		}
	}
	// Phase 2: rollback, state rebuild, deterministic replay (concurrent);
	// only the final checkpoint/commit records below need ordering.
	replayed := make([]int, len(p.shards))
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := p.shards[i]
			rec := recs[i]
			if err := sh.store.RollbackTo(committed); err != nil {
				errs[i] = err
				return
			}
			oram, err := ringoram.NewFromState(p.cfg.Key, p.shardParams(i), rec.Full, rec.Deltas...)
			if err != nil {
				errs[i] = err
				return
			}
			sh.exec = oramexec.New(oram, sh.store, oramexec.Config{
				Parallelism:  p.cfg.Parallelism,
				WriteThrough: p.cfg.WriteThrough,
				ScalarIO:     p.cfg.ScalarStorageIO,
			})
			sh.exec.BeginEpoch(recoveryEpoch)
			for _, batch := range rec.AbortedBatches {
				if err := sh.exec.ReplayBatch(batch); err != nil {
					errs[i] = fmt.Errorf("core: shard %d replaying aborted epoch: %w", i, err)
					return
				}
				replayed[i] += len(batch)
			}
			if len(rec.AbortedBatches) > 0 {
				if _, err := sh.exec.Flush(); err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, n := range replayed {
		p.replayedLast += n
	}
	p.stats.RecoveryReplayed += p.replayedLast
	// Checkpoints are per-shard prepares: independent logs, so they append
	// (and fsync) concurrently. Only the coordinator-first commit records
	// need cross-shard ordering; the storage CommitEpochs after them are
	// again independent barriers and run as one parallel round.
	ckptErrs := make([]error, len(p.shards))
	var ckptWG sync.WaitGroup
	for i := range p.shards {
		ckptWG.Add(1)
		go func(i int) {
			defer ckptWG.Done()
			sh := p.shards[i]
			_, ckptErrs[i] = sh.rlog.AppendCheckpoint(recoveryEpoch, sh.exec.ORAM())
		}(i)
	}
	ckptWG.Wait()
	for _, err := range ckptErrs {
		if err != nil {
			return err
		}
	}
	if err := p.appendCommitAll(recoveryEpoch); err != nil {
		return err
	}
	if err := p.commitStoresParallel(recoveryEpoch); err != nil {
		return err
	}
	p.epoch = recoveryEpoch + 1
	p.beginEpochAllLocked()
	return nil
}

// ReplayedReads reports how many logged entries the last recovery replayed.
func (p *Proxy) ReplayedReads() int { return p.replayedLast }

// Epoch returns the current epoch number.
func (p *Proxy) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// PendingFetches reports how many keys are queued for the next read batches
// across all shards.
func (p *Proxy) PendingFetches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, sh := range p.shards {
		n += sh.queuedKeys
	}
	return n
}

// Stats returns a snapshot of proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Shards = len(p.shards)
	s.ConflictAborts, s.CascadingAborts = p.ccu.Stats()
	s.ShedReads = p.shedReads.Load()
	s.DeferredTxns = p.deferredTxns.Load()
	s.AdmittedSessions = p.admittedSessions.Load()
	s.CacheHits = p.cacheHits.Load()
	for _, sh := range p.shards {
		s.ReadQueueDepth += sh.queuedKeys
	}
	for _, sh := range p.shards {
		es := sh.exec.Stats()
		s.Executor.RemoteReads += es.RemoteReads
		s.Executor.LocalReads += es.LocalReads
		s.Executor.BucketWrites += es.BucketWrites
		s.Executor.WritesBuffered += es.WritesBuffered
		s.Executor.Evictions += es.Evictions
		s.Executor.Reshuffles += es.Reshuffles
		s.Executor.ReadCalls += es.ReadCalls
		s.Executor.WriteCalls += es.WriteCalls
		if peak := sh.exec.ORAM().StashPeak(); peak > s.StashPeak {
			s.StashPeak = peak
		}
	}
	return s
}

// Close shuts the proxy down. In-flight transactions abort (fate sharing:
// no transaction of the unfinished epoch survives). A boundary whose commit
// stage is already in flight is allowed to land first: its transactions are
// durable and their acknowledgements truthful.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.loop.Wait()
		p.committers.Wait()
		return nil
	}
	p.closed = true
	// Wake a boundary blocked on back-pressure so the epoch loop can exit.
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
	p.loop.Wait()
	p.committers.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failAllLocked(ErrClosed)
	p.ccu.AbortAll()
	return nil
}

// Shutdown drains the proxy: the epoch loop stops driving new slots, the
// current epoch is sealed and committed so every already-accepted commit
// request resolves truthfully, and then the proxy closes. Unlike Close,
// which fate-shares the unfinished epoch (its transactions abort), Shutdown
// is the graceful SIGTERM path — clients that got past Commit's admission
// get a durable epoch, not ErrClosed.
func (p *Proxy) Shutdown() error {
	p.mu.Lock()
	if p.closed || p.draining {
		p.mu.Unlock()
		return p.Close()
	}
	p.draining = true
	p.mu.Unlock()
	// Wake the epoch loop so it observes draining and stops scheduling.
	select {
	case p.kick <- struct{}{}:
	default:
	}
	p.loop.Wait()
	// Seal and commit whatever the final epoch holds. EndEpoch runs the full
	// boundary (write batch, WAL records, storage commit), so transactions
	// admitted before draining commit durably. Errors fail-stop the proxy
	// like any boundary error; Close below still reaps the wreckage.
	err := p.EndEpoch()
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	p.committers.Wait()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	return err
}

// failAllLocked wakes every fetch and commit waiter with err, and every
// deferred transaction (which then observes the closed proxy).
func (p *Proxy) failAllLocked(err error) {
	p.openEpochLocked()
	for _, sh := range p.shards {
		for _, ws := range sh.queued {
			for _, w := range ws {
				w.done <- err
			}
		}
		sh.queued = make(map[string][]*fetchWaiter)
		sh.resetFetchQueuesLocked()
	}
	for ts, ch := range p.waiters {
		ch <- err
		delete(p.waiters, ts)
	}
}

// epochLoop drives the fixed batch schedule in auto mode.
func (p *Proxy) epochLoop() {
	defer p.loop.Done()
	timer := time.NewTimer(p.cfg.BatchInterval)
	defer timer.Stop()
	for {
		p.mu.Lock()
		closed := p.closed || p.draining
		p.mu.Unlock()
		if closed {
			return
		}
		step := p.stepScheduled
		select {
		case <-timer.C:
		case <-p.kick:
			p.mu.Lock()
			closed = p.closed || p.draining
			fire := false
			// An eager kick may only accelerate a read-batch slot. The
			// epoch boundary stays on the Δ timer: routing a full-queue
			// kick into EndEpoch would make the boundary's timing depend
			// on how many keys clients queued — a trace-shape leak (and,
			// pipelined, a premature seal).
			if p.cfg.EagerBatches && p.batchIdx < p.cfg.ReadBatches {
				for _, sh := range p.shards {
					if sh.queuedKeys >= p.cfg.ReadBatchSize {
						fire = true
						break
					}
				}
			}
			p.mu.Unlock()
			if closed {
				return
			}
			if !fire {
				continue
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			step = p.StepReadBatch
		}
		if err := step(); err != nil {
			// StepReadBatch and EndEpoch fail-stop the proxy themselves on
			// execution errors; the loop only stops driving the schedule.
			if !errors.Is(err, ErrClosed) {
				p.failBoundary(err)
			}
			return
		}
		timer.Reset(p.cfg.BatchInterval)
	}
}

// Advance moves the fixed schedule forward by one slot: the next read batch,
// or the epoch boundary once all R read batches have fired. It is the manual
// counterpart of the Δ timer (tests, deterministic examples).
func (p *Proxy) Advance() error { return p.stepScheduled() }

// stepScheduled advances the schedule by one slot: a read batch, or the
// epoch boundary once all R read batches have fired.
func (p *Proxy) stepScheduled() error {
	p.mu.Lock()
	last := p.batchIdx >= p.cfg.ReadBatches
	p.mu.Unlock()
	if last {
		return p.EndEpoch()
	}
	return p.StepReadBatch()
}

// shardReadBatch is one shard's share of a read-batch slot: the real keys it
// serves this round and their blocked transactions.
type shardReadBatch struct {
	sh      *shard
	keys    []string
	waiters map[string][]*fetchWaiter
}

// StepReadBatch issues the epoch's next read batch on every shard: up to
// bread queued fetches per shard, padded with dummies, executed in parallel
// across shards. Exported for manual mode and tests.
func (p *Proxy) StepReadBatch() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.batchIdx >= p.cfg.ReadBatches {
		p.mu.Unlock()
		return fmt.Errorf("core: epoch %d already issued all %d read batches", p.epoch, p.cfg.ReadBatches)
	}
	batches := make([]shardReadBatch, len(p.shards))
	for i, sh := range p.shards {
		// Fair drain: one key per session per pass (admission.go), up to
		// bread slots.
		keys := sh.takeBatchLocked(p.cfg.ReadBatchSize)
		waiters := make(map[string][]*fetchWaiter, len(keys))
		for _, k := range keys {
			waiters[k] = sh.queued[k]
			delete(sh.queued, k)
		}
		batches[i] = shardReadBatch{sh: sh, keys: keys, waiters: waiters}
		p.stats.ReadBatchSlots += uint64(p.cfg.ReadBatchSize)
		p.stats.RealReads += uint64(len(keys))
	}
	p.batchIdx++
	batchIdx := p.batchIdx - 1
	epoch := p.epoch
	p.mu.Unlock()

	// Per shard: plan, write-ahead log, execute. The write-ahead rule (§8:
	// the read schedule must be durable before its reads are issued) only
	// orders a shard's own log against its own reads, so planning and
	// execution run concurrently across shards. The log appends, though,
	// are split from their barrier: every shard's schedule record is
	// appended first (deferred), then one Sync round makes them all durable
	// before any read issues. On a shared physical log the round is ONE
	// fsync for all shards — barrier placement, not barrier count, is what
	// the write-ahead rule fixes.
	results := make([][]oramexec.ReadResult, len(batches))
	plans := make([]*oramexec.BatchPlan, len(batches))
	errs := make([]error, len(batches))
	oramexec.RunStages(len(batches), func(i int) {
		b := batches[i]
		ops := make([]oramexec.ReadOp, p.cfg.ReadBatchSize)
		for j, k := range b.keys {
			ops[j].Key = k
		}
		plans[i], errs[i] = b.sh.exec.PlanReadBatch(ops)
	})
	for i, b := range batches {
		if errs[i] != nil || b.sh.rlog == nil {
			continue
		}
		if err := b.sh.rlog.AppendBatchDeferred(epoch, batchIdx, plans[i].Log()); err != nil {
			errs[i] = err
		}
	}
	shs := make([]*shard, len(batches))
	for i, b := range batches {
		shs[i] = b.sh
	}
	p.syncLogsParallel(shs, errs)
	oramexec.RunStages(len(batches), func(i int) {
		if errs[i] != nil {
			return
		}
		results[i], errs[i] = batches[i].sh.exec.Execute(plans[i])
	})

	p.mu.Lock()
	for i, b := range batches {
		if errs[i] != nil {
			continue
		}
		for _, r := range results[i] {
			if r.Key == "" {
				continue
			}
			p.ccu.InstallBase(r.Key, r.Value, r.Found)
			b.sh.fetched[r.Key] = true
			for _, w := range b.waiters[r.Key] {
				w.done <- nil
			}
			delete(b.waiters, r.Key)
		}
	}
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// Waiters were already dequeued from sh.queued into the batches, so
		// failAllLocked can no longer reach them: wake every one still
		// unserved (all shards — the batch failed as a unit) or their
		// transactions would block forever.
		for _, b := range batches {
			for _, ws := range b.waiters {
				for _, w := range ws {
					w.done <- firstErr
				}
			}
		}
		// A failed batch leaves planned ORAM metadata with no matching
		// storage reads: the executor state has diverged from the tree, so
		// the proxy fail-stops (crash-and-recover is §8's answer) instead
		// of continuing on a broken schedule.
		p.closed = true
		p.failAllLocked(firstErr)
		p.boundaryDone.Broadcast()
	}
	p.mu.Unlock()
	if firstErr != nil {
		p.ccu.AbortAll()
	}
	return firstErr
}

// boundaryJob carries one sealed epoch from its seal to its commit.
type boundaryJob struct {
	epoch     uint64
	sealed    []*oramexec.SealedEpoch  // per-shard detached write-back sets
	ckpts     []*wal.PendingCheckpoint // per-shard checkpoint snapshots (nil without durability)
	commitAck map[mvtso.Timestamp]chan error
	committed uint64
}

// pipelined reports whether boundary commit stages run on the background
// committer (see BoundaryMode).
func (p *Proxy) pipelined() bool {
	switch p.cfg.Boundary {
	case BoundarySync:
		return false
	case BoundaryPipelined:
		return true
	default:
		return p.cfg.BatchInterval > 0
	}
}

// EndEpoch finalizes the current epoch in two stages. The synchronous SEAL
// decides transaction fates, partitions and executes the write batch,
// detaches every shard's buffered write-back set under a sealed-epoch
// handle, snapshots the checkpoints, and immediately opens the next epoch so
// read batches resume. The COMMIT stage flushes the sealed buckets, appends
// the per-shard checkpoints and the coordinator-first commit records,
// commits the storage epoch, and only then acknowledges the epoch's commit
// waiters — delayed visibility already deferred acks to the boundary, so
// deferring them to the commit's completion changes no client-visible
// semantics. Pipelined, the commit runs on a background committer and
// EndEpoch returns right after the seal, with at most one boundary in
// flight (the next seal waits for the previous commit to land). A boundary
// error in either stage fail-stops the proxy: every fetch and commit waiter
// is woken, in manual mode as much as in auto mode. Exported for manual
// mode and tests.
func (p *Proxy) EndEpoch() error {
	job, err := p.sealEpoch()
	if err != nil {
		return err
	}
	if p.pipelined() {
		p.committers.Add(1)
		go func() {
			defer p.committers.Done()
			p.commitBoundary(job)
		}()
		return nil
	}
	return p.commitBoundary(job)
}

// sealEpoch runs the boundary's synchronous stage and opens the next epoch.
// On return the write batch has executed, every shard's write-back set is
// sealed, the checkpoints are snapshotted, and read batches may resume; the
// returned job is registered as the (single) in-flight boundary.
func (p *Proxy) sealEpoch() (*boundaryJob, error) {
	p.mu.Lock()
	// Back-pressure: at most one boundary in flight. If the previous
	// epoch's commit has not landed yet, this boundary waits here — the
	// current epoch's read batches already ran, so only the seal stalls.
	for p.inflight != nil && !p.closed {
		p.boundaryDone.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	epoch := p.epoch
	// From here until the next epoch opens the admission gate sees no slot
	// left, and a fresh transaction waits for that epoch (Txn.bind).
	p.sealing = true
	// Reads that never got a batch slot: their transactions abort with the
	// epoch (fate sharing); wake them now so they observe the abort.
	for _, sh := range p.shards {
		for _, ws := range sh.queued {
			for _, w := range ws {
				w.done <- fmt.Errorf("%w: read batches exhausted", ErrEpochFull)
			}
		}
		sh.queued = make(map[string][]*fetchWaiter)
		sh.resetFetchQueuesLocked()
	}
	p.mu.Unlock()

	// Decide fates. Every transaction that did not request commit aborts.
	out := p.ccu.FinalizeEpoch()

	// Partition the deduplicated write set across shards.
	shardOps := make([][]oramexec.WriteOp, len(p.shards))
	for _, w := range out.Writes {
		i := shardOf(w.Key, len(p.shards))
		if len(shardOps[i]) == p.cfg.WriteBatchSize {
			// Unreachable: the CCU charges every admitted write against the
			// epoch generation's budget under its own lock (SetWriteBudget),
			// so the finalized write set cannot exceed it. Fail-stop if the
			// invariant ever breaks — the epoch cannot commit these writes.
			return nil, p.failBoundary(fmt.Errorf("core: shard %d write set exceeds write batch (%d)", i, p.cfg.WriteBatchSize))
		}
		shardOps[i] = append(shardOps[i], oramexec.WriteOp{Key: w.Key, Value: w.Value, Tombstone: w.Tombstone})
	}
	p.mu.Lock()
	p.stats.WriteSlots += uint64(p.cfg.WriteBatchSize * len(p.shards))
	p.stats.RealWrites += uint64(len(out.Writes))
	p.mu.Unlock()

	// Per-shard seal pipeline (pad, plan, log, execute, seal, checkpoint
	// snapshot) runs concurrently across shards; each stage orders
	// correctly within its shard. The checkpoint must be snapshotted here,
	// before the next epoch mutates the ORAM metadata; its durable append
	// is the commit stage's job.
	job := &boundaryJob{
		epoch:  epoch,
		sealed: make([]*oramexec.SealedEpoch, len(p.shards)),
		ckpts:  make([]*wal.PendingCheckpoint, len(p.shards)),
	}
	// Same staging as StepReadBatch: plan everywhere, append every shard's
	// write-batch schedule deferred, one Sync round (one fsync on a shared
	// log), then execute — the write-ahead rule holds per shard, with the
	// barrier placed once per round instead of once per record.
	errs := make([]error, len(p.shards))
	wplans := make([]*oramexec.BatchPlan, len(p.shards))
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		ops := shardOps[i]
		for len(ops) < p.cfg.WriteBatchSize {
			ops = append(ops, oramexec.WriteOp{})
		}
		wplans[i], errs[i] = sh.exec.PlanWriteBatch(ops)
	})
	for i, sh := range p.shards {
		if errs[i] != nil || sh.rlog == nil {
			continue
		}
		if err := sh.rlog.AppendBatchDeferred(epoch, p.cfg.ReadBatches, wplans[i].Log()); err != nil {
			errs[i] = err
		}
	}
	p.syncLogsParallel(p.shards, errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		if errs[i] != nil {
			return
		}
		sh := p.shards[i]
		if _, err := sh.exec.Execute(wplans[i]); err != nil {
			errs[i] = err
			return
		}
		// Detach the epoch's write-back set. The next epoch's reads
		// that land on a sealed bucket are served from it locally, so
		// they stay correct while the flush is still in flight.
		var err error
		if job.sealed[i], err = sh.exec.SealEpoch(); err != nil {
			errs[i] = err
			return
		}
		if sh.rlog != nil {
			job.ckpts[i], errs[i] = sh.rlog.PrepareCheckpoint(epoch, sh.exec.ORAM())
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, p.failBoundary(err)
		}
	}

	// Collect the epoch's commit waiters for the commit stage, ack its
	// aborts (no durability obligation), and open the next epoch.
	p.mu.Lock()
	job.commitAck = make(map[mvtso.Timestamp]chan error, len(out.Committed))
	job.committed = uint64(len(out.Committed))
	for _, ts := range out.Committed {
		if ch, ok := p.waiters[ts]; ok {
			job.commitAck[ts] = ch
			delete(p.waiters, ts)
		}
	}
	p.stats.Aborted += uint64(len(out.Aborted))
	for _, ts := range out.Aborted {
		if ch, ok := p.waiters[ts]; ok {
			ch <- ErrAborted
			delete(p.waiters, ts)
		}
	}
	// Any waiter left belongs either to a transaction the CCU no longer
	// tracks (abort it now) or to one that began while this boundary was
	// already finalizing: that transaction lives in the next epoch's CCU
	// generation, so its waiter stays registered and the next boundary
	// decides it. Acking such a transaction as aborted here would lie —
	// its writes would still commit next epoch.
	for ts, ch := range p.waiters {
		if st := p.ccu.Status(ts); st == mvtso.StatusActive || st == mvtso.StatusFinished {
			continue
		}
		ch <- ErrAborted
		delete(p.waiters, ts)
	}
	for _, sh := range p.shards {
		sh.fetched = make(map[string]bool)
	}
	p.batchIdx = 0
	p.epoch++
	p.sealing = false
	p.beginEpochAllLocked()
	p.inflight = job
	p.openEpochLocked()
	p.mu.Unlock()
	return job, nil
}

// openEpochLocked wakes the transactions waiting for the next epoch: it just
// opened, or the proxy closed. The caller holds p.mu.
func (p *Proxy) openEpochLocked() {
	close(p.epochOpen)
	p.epochOpen = make(chan struct{})
}

// commitBoundary runs a sealed boundary's commit stage and publishes its
// outcome: on success the epoch's commit waiters are acknowledged; on
// failure they receive the error and the proxy fail-stops (a half-committed
// boundary leaves proxy metadata ahead of storage — §8's answer is to crash
// and recover). Either way the boundary slot is freed for the next seal.
func (p *Proxy) commitBoundary(job *boundaryJob) error {
	err := p.runCommit(job)
	if err == nil && p.cfg.Replicator != nil {
		// Replication barrier: in replica-acked mode the acks below addition-
		// ally stand on the standby holding every record of this epoch. The
		// epoch is already durably committed locally, so Barrier degrades
		// rather than fails (see Replicator) — a non-nil error here means the
		// replicator itself is broken, and fail-stop is the honest outcome.
		err = p.cfg.Replicator.Barrier()
	}
	p.mu.Lock()
	p.inflight = nil
	if err == nil {
		p.stats.Epochs++
		p.stats.Committed += job.committed
		for _, ch := range job.commitAck {
			ch <- nil
		}
	} else {
		for _, ch := range job.commitAck {
			ch <- err
		}
		p.closed = true
		p.failAllLocked(err)
	}
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	if err != nil {
		p.ccu.AbortAll()
	}
	return err
}

// runCommit makes a sealed epoch durable: flush every shard's sealed
// buckets and append its checkpoint (prepare), then the coordinator-first
// commit records (the global commit point), then commit the storage epoch.
// Per-shard work runs concurrently; only the commit point needs cross-shard
// ordering.
func (p *Proxy) runCommit(job *boundaryJob) error {
	errs := make([]error, len(p.shards))
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		if _, err := sh.exec.FlushSealed(job.sealed[i]); err != nil {
			errs[i] = err
			return
		}
		if !p.pipelined() {
			// A synchronous boundary has no overlap to serve: retire
			// the sealed set so the next epoch reads storage directly,
			// keeping the observable trace (and its crash replay)
			// identical to the unpipelined design.
			sh.exec.ReleaseSealed(job.sealed[i])
		}
	})
	// Prepare: append every shard's checkpoint deferred. On the inline path
	// a Sync round follows, making all prepared records durable before the
	// commit point is written; on the unified path the stream order itself
	// carries prepare-before-commit and the whole boundary stands on one
	// final flush.
	for i, sh := range p.shards {
		if errs[i] != nil || job.ckpts[i] == nil {
			continue
		}
		if _, err := sh.rlog.AppendPreparedDeferred(job.ckpts[i]); err != nil {
			errs[i] = err
		}
	}
	// The test hook's contract is "shard i's commit record is durable, later
	// shards' not yet appended" — only the inline path has that intermediate
	// state, so hooked runs keep it.
	if p.unified != nil && p.shards[0].rlog != nil && p.testCommitHook == nil {
		return p.commitUnified(job, errs)
	}
	p.syncLogsParallel(p.shards, errs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Global commit point: all shards prepared; the coordinator's commit
	// record decides the epoch for everyone.
	if p.shards[0].rlog != nil {
		if err := p.appendCommitAll(job.epoch); err != nil {
			return err
		}
	}
	return p.commitStoresParallel(job.epoch)
}

// commitUnified retires a sealed boundary with ONE flush wave. In logheap
// mode the epoch's write-back buckets, every shard's checkpoint, the WAL
// commit records, and every shard's storage epoch commit are all records on
// the same physical append stream, so a single fsync makes the entire
// boundary durable at once. Record order carries the protocol that the
// inline path enforces with barriers: checkpoints (prepare) precede the
// coordinator's commit record (the global commit point), which precedes
// every heap commit (epoch retirement) — and crash recovery keeps a prefix
// of the stream, so no record can outlive a crash without every record it
// depends on. A lost suffix therefore always lands BETWEEN protocol steps,
// never inside an inverted one.
func (p *Proxy) commitUnified(job *boundaryJob, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Coordinator first: within one stream, "appended earlier" is all the
	// ordering the global commit point needs.
	for _, sh := range p.shards {
		if err := sh.rlog.AppendCommitDeferred(job.epoch); err != nil {
			return err
		}
	}
	for i := range p.shards {
		if err := p.unified[i].CommitEpochNoSync(job.epoch); err != nil {
			return err
		}
	}
	p.syncLogsParallel(p.shards, errs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commitStoresParallel retires the epoch on every shard's storage
// concurrently. Each CommitEpoch stands on its own fsync barrier; issuing
// them together lets backends sharing a commit-group data dir coalesce the
// whole round into one fsync wave instead of paying one barrier per shard.
func (p *Proxy) commitStoresParallel(epoch uint64) error {
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.shards[i].store.CommitEpoch(epoch)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// failBoundary fail-stops the proxy after a boundary error: every fetch and
// commit waiter is woken with err regardless of mode, so manual-mode
// Advance() callers are never stranded.
func (p *Proxy) failBoundary(err error) error {
	p.mu.Lock()
	p.closed = true
	p.failAllLocked(err)
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	p.ccu.AbortAll()
	return err
}
