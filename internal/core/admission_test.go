package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/mvtso"
	"obladi/internal/storage"
)

// TestAdmissionShedsBeyondBudget pins the gate: an epoch with R×bread read
// slots admits exactly that many distinct keys and sheds the next one from a
// transaction that already touched data immediately — as a retryable abort
// carrying the retry-epoch hint — instead of queueing it to die at the seal.
func TestAdmissionShedsBeyondBudget(t *testing.T) {
	cfg := testConfig(11)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	budget := cfg.ReadBatches * cfg.ReadBatchSize
	tx := p.Begin()
	defer tx.Abort()
	var futures []*Future
	for i := 0; i < budget; i++ {
		futures = append(futures, tx.ReadAsync(fmt.Sprintf("k%d", i)))
	}
	// The budget is spoken for: the next distinct key must shed, now. The
	// reader has written first, so it cannot move to the next epoch.
	over := p.Begin()
	defer over.Abort()
	if err := over.Write("w", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err := over.ReadAsync("overflow").Wait(context.Background())
	if err == nil {
		t.Fatal("over-budget read admitted")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("shed took %v: must be immediate, not wait out the epoch", time.Since(start))
	}
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrAborted) || !errors.Is(err, ErrEpochFull) {
		t.Fatalf("shed error %v must match ErrShed, ErrAborted and ErrEpochFull", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("no *ShedError in %v", err)
	}
	if want := p.Epoch() + 1; shed.RetryEpoch != want {
		t.Fatalf("RetryEpoch = %d, want %d", shed.RetryEpoch, want)
	}

	// A key another session already queued costs no new slot: joining its
	// waiters must not shed.
	joiner := p.Begin()
	defer joiner.Abort()
	jf := joiner.ReadAsync("k0")

	// Admission implies service: every admitted read resolves as its batch
	// fires — none aborts with "read batches exhausted".
	done := make(chan error, budget+1)
	for _, f := range append(futures, jf) {
		go func(f *Future) {
			_, _, err := f.Wait(context.Background())
			done <- err
		}(f)
	}
	waitQueued(t, p, budget)
	for i := 0; i < cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < budget+1; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted read aborted: %v", err)
		}
	}

	st := p.Stats()
	if st.ShedReads != 1 {
		t.Fatalf("ShedReads = %d, want 1", st.ShedReads)
	}
	if st.AdmittedSessions != 1 {
		t.Fatalf("AdmittedSessions = %d, want 1 (only tx queued new slots)", st.AdmittedSessions)
	}
}

// TestAdmissionBudgetShrinksWithBatches pins the high-water mark to the
// *remaining* schedule: after a batch fires, the epoch has fewer slots left,
// so the gate tightens accordingly.
func TestAdmissionBudgetShrinksWithBatches(t *testing.T) {
	cfg := testConfig(12)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	if err := p.Advance(); err != nil { // burn batch 1 empty
		t.Fatal(err)
	}
	tx := p.Begin()
	defer tx.Abort()
	tx.ReadAsync("a")
	tx.ReadAsync("b")
	_, _, err := tx.ReadAsync("c").Wait(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("third key after burning one of two batches: got %v, want shed", err)
	}
}

// TestFairSlotSchedulingRoundRobin pins the drain order: one key per session
// per pass, so a pipelining session cannot monopolize a batch ahead of
// single-read sessions that arrived after it.
func TestFairSlotSchedulingRoundRobin(t *testing.T) {
	cfg := testConfig(13)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 4
	p, _, _ := testProxy(t, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shards[0]

	// Session 1 pipelines five keys; sessions 2..4 want one each.
	for i := 0; i < 5; i++ {
		if err := p.admitFetchLocked(sh, mvtso.Timestamp(1), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 2; s <= 4; s++ {
		if err := p.admitFetchLocked(sh, mvtso.Timestamp(s), fmt.Sprintf("s%d", s)); err != nil {
			t.Fatal(err)
		}
	}

	got := sh.takeBatchLocked(4)
	want := []string{"p0", "s2", "s3", "s4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch 1 = %v, want %v (one key per session per pass)", got, want)
	}
	// Only the pipeliner remains; the next batch is all theirs, in order.
	got = sh.takeBatchLocked(4)
	want = []string{"p1", "p2", "p3", "p4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch 2 = %v, want %v", got, want)
	}
	if sh.queuedKeys != 0 || len(sh.ring) != 0 || len(sh.sessQ) != 0 || len(sh.pending) != 0 {
		t.Fatalf("drain left state: queuedKeys=%d ring=%d sessQ=%d pending=%d",
			sh.queuedKeys, len(sh.ring), len(sh.sessQ), len(sh.pending))
	}
}

// TestFairSchedulingCursorPersists pins that the round-robin cursor carries
// across batches: a session served last in batch n is not served first again
// in batch n+1 while others wait.
func TestFairSchedulingCursorPersists(t *testing.T) {
	cfg := testConfig(14)
	cfg.ReadBatches = 4
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shards[0]

	// Three sessions with two keys each; batches of two.
	for s := 1; s <= 3; s++ {
		for i := 0; i < 2; i++ {
			if err := p.admitFetchLocked(sh, mvtso.Timestamp(s), fmt.Sprintf("s%d-%d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var order []string
	for len(order) < 6 {
		order = append(order, sh.takeBatchLocked(2)...)
	}
	want := []string{"s1-0", "s2-0", "s3-0", "s1-1", "s2-1", "s3-1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v (cursor must persist across batches)", order, want)
	}
}

// TestDisableAdmissionRestoresOldBehavior pins the ablation knob: with the
// gate off, over-budget reads queue unboundedly and die at the seal with
// plain ErrEpochFull, as before this plane existed.
func TestDisableAdmissionRestoresOldBehavior(t *testing.T) {
	cfg := testConfig(15)
	cfg.ReadBatches = 1
	cfg.ReadBatchSize = 1
	cfg.DisableAdmission = true
	p, _, _ := testProxy(t, cfg)

	tx := p.Begin()
	defer tx.Abort()
	tx.ReadAsync("a")
	f := tx.ReadAsync("b") // over budget: queues anyway
	waitQueued(t, p, 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Wait(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("over-budget read resolved early with gate off: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := p.Advance(); err != nil { // the only read batch: serves "a"
		t.Fatal(err)
	}
	if err := p.Advance(); err != nil { // boundary: aborts "b"
		t.Fatal(err)
	}
	err := <-done
	if !errors.Is(err, ErrEpochFull) {
		t.Fatalf("seal abort = %v, want ErrEpochFull", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatalf("gate off must not shed, got %v", err)
	}
	if st := p.Stats(); st.ShedReads != 0 {
		t.Fatalf("ShedReads = %d with gate off", st.ShedReads)
	}
}

// TestAdmissionStatsCounters exercises the shed/queue-depth/admitted-session
// counters concurrently; run under -race this doubles as the atomic-access
// check the Stats contract requires.
func TestAdmissionStatsCounters(t *testing.T) {
	cfg := testConfig(16)
	cfg.BatchInterval = 300 * time.Microsecond
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	cfg.DisableDurability = true
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
				_ = p.PendingFetches()
			}
		}
	}()
	workers := 8
	workDone := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { workDone <- struct{}{} }()
			deadline := time.Now().Add(100 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				tx := p.Begin()
				tx.Read(fmt.Sprintf("w%d-%d", w, i%8))
				tx.Abort()
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-workDone
	}
	close(stop)
	<-statsDone
	st := p.Stats()
	if st.ShedReads == 0 {
		t.Fatal("8 workers on a 4-slot epoch never shed — gate not engaged")
	}
	if st.AdmittedSessions == 0 {
		t.Fatal("no sessions admitted")
	}
	if st.ReadQueueDepth < 0 {
		t.Fatalf("ReadQueueDepth = %d", st.ReadQueueDepth)
	}
}

// schedulePos reports how many of the current epoch's read batches fired.
func schedulePos(p *Proxy) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batchIdx
}

// advanceTo drives the manual schedule until pos read batches of the current
// epoch have fired, crossing a boundary if the schedule is already past pos.
func advanceTo(t *testing.T, p *Proxy, pos int) {
	t.Helper()
	for schedulePos(p) != pos {
		must(t, p.Advance())
	}
}

// waitDeferred waits until n transactions in total have been deferred.
func waitDeferred(t *testing.T, p *Proxy, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().DeferredTxns < n {
		if time.Now().After(deadline) {
			t.Fatalf("DeferredTxns = %d, want %d", p.Stats().DeferredTxns, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// readResult is one background read's outcome.
type readResult struct {
	value []byte
	found bool
	err   error
}

// TestAdmissionIdleNeverSheds pins "an idle system never sheds": a lone
// client reading one key per transaction at every position of the schedule —
// including after the epoch's last read batch, where the epoch has no slot
// left — is served every time. The late reads wait for the next epoch
// instead of being refused.
func TestAdmissionIdleNeverSheds(t *testing.T) {
	cfg := testConfig(17)
	cfg.ReadBatches = 3
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	R := cfg.ReadBatches

	keys := []string{"a", "b", "c", "d"}
	seed := p.Begin()
	for i, k := range keys {
		must(t, seed.Write(k, []byte{byte(i)}))
	}
	ch := seed.CommitAsync()
	advanceTo(t, p, R)
	must(t, p.Advance()) // boundary
	must(t, <-ch)

	const epochs = 5
	reads := 0
	for e := 0; e < epochs; e++ {
		for pos := 0; pos <= R; pos++ {
			advanceTo(t, p, pos)
			i := reads % len(keys)
			reads++
			deferred := p.Stats().DeferredTxns
			done := make(chan readResult, 1)
			go func() {
				tx := p.Begin()
				defer tx.Abort()
				v, found, err := tx.Read(keys[i])
				done <- readResult{v, found, err}
			}()
			if pos == R {
				// No slot left this epoch: the read waits for the next one.
				waitDeferred(t, p, deferred+1)
				must(t, p.Advance()) // boundary
			}
			waitQueued(t, p, 1)
			must(t, p.Advance()) // the read's batch
			var r readResult
			select {
			case r = <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("epoch %d position %d: read never resolved", e, pos)
			}
			if r.err != nil {
				t.Fatalf("epoch %d position %d: lone read failed: %v", e, pos, r.err)
			}
			if !r.found || len(r.value) != 1 || r.value[0] != byte(i) {
				t.Fatalf("epoch %d position %d: read %q = %v %v", e, pos, keys[i], r.value, r.found)
			}
		}
	}
	st := p.Stats()
	if st.ShedReads != 0 {
		t.Fatalf("ShedReads = %d for a lone client: an idle system shed", st.ShedReads)
	}
	if st.DeferredTxns != epochs {
		t.Fatalf("DeferredTxns = %d, want %d (one read per epoch arrived after the last batch)", st.DeferredTxns, epochs)
	}
}

// TestAdmissionDeferredHonoursContext pins that a transaction waiting for
// the next epoch is unblocked by its context: cancellation returns promptly
// with a retryable abort instead of waiting out the boundary.
func TestAdmissionDeferredHonoursContext(t *testing.T) {
	cfg := testConfig(18)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	advanceTo(t, p, cfg.ReadBatches)
	epoch := p.Epoch()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		tx := p.BeginCtx(ctx)
		defer tx.Abort()
		_, _, err := tx.Read("k")
		done <- err
	}()
	waitDeferred(t, p, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled deferred read: %v, want ErrAborted and context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled deferred read still waiting for the boundary")
	}
	if got := p.Epoch(); got != epoch {
		t.Fatalf("epoch moved %d -> %d: cancellation waited out the boundary", epoch, got)
	}
	if st := p.Stats(); st.ShedReads != 0 {
		t.Fatalf("ShedReads = %d, want 0", st.ShedReads)
	}
}

// TestAdmissionDefersWhenSubscribed pins the second deferral trigger: a
// fresh transaction whose first fetch finds the shard's remaining slots
// spoken for moves to the next epoch, with a fresh timestamp, and is served
// there.
func TestAdmissionDefersWhenSubscribed(t *testing.T) {
	cfg := testConfig(19)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	filler := p.Begin()
	defer filler.Abort()
	budget := cfg.ReadBatches * cfg.ReadBatchSize
	for i := 0; i < budget; i++ {
		filler.ReadAsync(fmt.Sprintf("f%d", i))
	}
	type lateResult struct {
		err      error
		ts0, ts1 uint64
	}
	done := make(chan lateResult, 1)
	go func() {
		late := p.Begin()
		defer late.Abort()
		ts0 := late.TS()
		_, _, err := late.Read("late")
		done <- lateResult{err, ts0, late.TS()}
	}()
	waitDeferred(t, p, 1)
	advanceTo(t, p, cfg.ReadBatches) // serve the filler's reads
	must(t, p.Advance())             // boundary: the late transaction moves
	waitQueued(t, p, 1)
	must(t, p.Advance())
	r := <-done
	if r.err != nil {
		t.Fatalf("deferred read: %v", r.err)
	}
	if r.ts1 <= r.ts0 {
		t.Fatalf("deferred transaction kept timestamp %d (now %d): it must begin afresh in the next epoch", r.ts0, r.ts1)
	}
	if st := p.Stats(); st.ShedReads != 0 || st.DeferredTxns != 1 {
		t.Fatalf("ShedReads = %d, DeferredTxns = %d; want 0 and 1", st.ShedReads, st.DeferredTxns)
	}
}

// TestAdmissionDefersOnlyOnce pins that deferral never stacks: a deferred
// transaction faces the next epoch's gate like any other and is shed there
// if that budget cannot serve it, instead of waiting another boundary.
func TestAdmissionDefersOnlyOnce(t *testing.T) {
	cfg := testConfig(20)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	// One more key than an epoch has slots: no epoch can serve the set.
	var keys []string
	for i := 0; i <= cfg.ReadBatches*cfg.ReadBatchSize; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	done := make(chan error, 1)
	go func() {
		tx := p.Begin()
		defer tx.Abort()
		_, err := tx.ReadMany(keys)
		done <- err
	}()
	waitDeferred(t, p, 1)
	start := p.Epoch()
	for {
		select {
		case err := <-done:
			var shed *ShedError
			if !errors.As(err, &shed) {
				t.Fatalf("oversized read set after one deferral: %v, want a shed", err)
			}
			if shed.RetryEpoch != start+2 {
				t.Fatalf("shed in epoch %d, want %d: the transaction waited more than one boundary", shed.RetryEpoch-1, start+1)
			}
			if st := p.Stats(); st.DeferredTxns != 1 || st.ShedReads != 1 {
				t.Fatalf("DeferredTxns = %d, ShedReads = %d; want 1 and 1", st.DeferredTxns, st.ShedReads)
			}
			return
		case <-time.After(time.Millisecond):
			must(t, p.Advance())
		}
	}
}

// TestAdmissionNoAdmittedFetchDiesAtSeal pins "admission implies service"
// under contention: many clients on a tiny slot budget, with multi-key and
// dependent reads, in auto mode. Reads may be shed or deferred, but no read
// that was admitted is ever aborted at the seal for lack of a batch slot.
func TestAdmissionNoAdmittedFetchDiesAtSeal(t *testing.T) {
	cfg := testConfig(21)
	cfg.BatchInterval = 300 * time.Microsecond
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	cfg.DisableDurability = true
	p, err := New(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 8
	errs := make(chan error, workers)
	var served atomic.Int64
	for w := 0; w < workers; w++ {
		go func(w int) {
			deadline := time.Now().Add(150 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				tx := p.Begin()
				keys := []string{fmt.Sprintf("w%d-%d", w, i%16)}
				if i%3 == 0 {
					keys = append(keys, fmt.Sprintf("w%d-%d", w, (i+1)%16))
				}
				_, err := tx.ReadMany(keys)
				if err == nil && i%2 == 0 {
					_, _, err = tx.Read(fmt.Sprintf("w%d-x%d", w, i%16)) // dependent read
				}
				tx.Abort()
				if err == nil {
					served.Add(1)
				} else if errors.Is(err, ErrEpochFull) && !errors.Is(err, ErrShed) {
					errs <- fmt.Errorf("worker %d: admitted read died at the seal: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if served.Load() == 0 {
		t.Fatal("no transaction was served")
	}
}

// TestAdmissionStatsCountStorageCallsAndCacheHits pins the Stats counters
// that used to read zero: storage read/write calls are the sum of every
// shard executor's own counts, and CacheHits counts reads served from the
// version cache without a batch slot.
func TestAdmissionStatsCountStorageCallsAndCacheHits(t *testing.T) {
	cfg := testConfig(22)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	backends := []storage.Backend{
		storage.NewMemBackend(cfg.Params.Geometry().NumBuckets),
		storage.NewMemBackend(cfg.Params.Geometry().NumBuckets),
	}
	p, err := NewSharded(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hits := uint64(0)
	for e := 0; e < 3; e++ {
		w := p.Begin()
		must(t, w.Write(fmt.Sprintf("e%d", e), []byte("v")))
		ch := w.CommitAsync()
		r := p.Begin()
		f := r.ReadAsync("shared")
		waitQueued(t, p, 1)
		must(t, p.Advance())
		if _, _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The base is resident now: a second transaction and a repeat read
		// are both served from the version cache.
		again := p.Begin()
		if _, _, err := again.Read("shared"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Read("shared"); err != nil {
			t.Fatal(err)
		}
		hits += 2
		again.Abort()
		r.Abort()
		advanceTo(t, p, cfg.ReadBatches)
		must(t, p.Advance()) // boundary
		must(t, <-ch)
	}

	st := p.Stats()
	var readCalls, writeCalls int64
	for _, sh := range p.shards {
		es := sh.exec.Stats()
		readCalls += es.ReadCalls
		writeCalls += es.WriteCalls
	}
	if st.Executor.ReadCalls != readCalls || st.Executor.WriteCalls != writeCalls {
		t.Fatalf("Stats storage calls read=%d write=%d, executors counted read=%d write=%d",
			st.Executor.ReadCalls, st.Executor.WriteCalls, readCalls, writeCalls)
	}
	if readCalls == 0 || writeCalls == 0 {
		t.Fatalf("executors counted read=%d write=%d storage calls over three epochs", readCalls, writeCalls)
	}
	if st.CacheHits != hits {
		t.Fatalf("CacheHits = %d, want %d", st.CacheHits, hits)
	}
}
