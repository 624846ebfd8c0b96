package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// RunFailoverConformance pins the proxy-failover contract: framing integrity
// (torn tails and corruption detected, never half-applied), lease semantics
// (heartbeats hold it, silence expires it), promotion fencing (the zombie
// primary's next append fails loudly), standby replay equivalence with cold
// recovery, and zero acknowledged-commit loss across a handoff in both ack
// modes. It lives here so any future transport or protocol change re-proves
// the whole contract under -race with one call.
func RunFailoverConformance(t *testing.T) {
	checks := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"framing/roundtrip", checkFramingRoundTrip},
		{"framing/torn-tail", checkFramingTornTail},
		{"framing/corruption", checkFramingCorruption},
		{"framing/hello", checkHelloValidation},
		{"stream/dedup-by-seq", checkDedupBySeq},
		{"stream/resync-replays-history", checkResyncReplaysHistory},
		{"lease/heartbeat-holds", checkLeaseHeartbeatHolds},
		{"lease/expires-on-silence", checkLeaseExpires},
		{"promotion/fences-zombie", checkPromotionFencesZombie},
		{"promotion/replay-equivalence", checkReplayEquivalence},
		{"handoff/zero-acked-loss-local", func(t *testing.T) { checkZeroAckedLoss(t, false) }},
		{"handoff/zero-acked-loss-replica-acked", func(t *testing.T) { checkZeroAckedLoss(t, true) }},
	}
	for _, c := range checks {
		t.Run(c.name, c.run)
	}
}

// --- framing ---

func sampleFrames() []frame {
	big := bytes.Repeat([]byte{0xa5}, 4096)
	return []frame{
		helloFrame(3),
		{kind: frameRecord, shard: 2, seq: 7, rec: []byte("sealed-record")},
		{kind: frameRecord, shard: 0, seq: 1, rec: big},
		{kind: frameHeartbeat},
		{kind: frameSyncpoint, seq: 42},
		{kind: frameAck, seq: 41},
	}
}

func checkFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleFrames()
	for _, f := range want {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		g, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g.kind != w.kind || g.shard != w.shard || g.seq != w.seq || !bytes.Equal(g.rec, w.rec) {
			t.Fatalf("frame %d: got %+v want %+v", i, g, w)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("clean tail: got %v, want io.EOF", err)
	}
}

// checkFramingTornTail truncates a two-frame stream at every byte offset: a
// cut between frames must read as a clean io.EOF after the intact prefix, a
// cut inside a frame must surface ErrTornFrame — never a partial frame.
func checkFramingTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 1, seq: 9, rec: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 1, seq: 10, rec: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	bounds := []int{0, first, len(full)} // frame boundaries in the stream
	for cut := 0; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		whole := 0 // frames fully contained before the cut
		for whole+1 < len(bounds) && bounds[whole+1] <= cut {
			whole++
		}
		for i := 0; i < whole; i++ {
			if _, err := readFrame(r); err != nil {
				t.Fatalf("cut %d: intact frame %d: %v", cut, i, err)
			}
		}
		_, err := readFrame(r)
		if cut == bounds[whole] { // cut exactly between frames
			if err != io.EOF {
				t.Fatalf("cut %d: got %v, want io.EOF", cut, err)
			}
		} else if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut %d: got %v, want ErrTornFrame", cut, err)
		}
	}
}

// checkFramingCorruption flips every byte of an encoded frame in turn; each
// single-byte flip must be rejected (crc mismatch, implausible length, or a
// torn read from a garbled length prefix) — never decoded as valid.
func checkFramingCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 3, seq: 12, rec: []byte("payload-bytes")}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		_, err := readFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTornFrame) {
			t.Fatalf("flip at %d: got %v, want corrupt/torn", i, err)
		}
	}
}

func checkHelloValidation(t *testing.T) {
	if n, err := checkHello(helloFrame(4)); err != nil || n != 4 {
		t.Fatalf("good hello: %d, %v", n, err)
	}
	bads := []frame{
		{kind: frameRecord, shard: 4, seq: frameVersion, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion + 1, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion, rec: []byte("NOPE")},
		{kind: frameHello, shard: 0, seq: frameVersion, rec: []byte(frameMagic)},
	}
	for i, f := range bads {
		if _, err := checkHello(f); !errors.Is(err, ErrBadHello) {
			t.Fatalf("bad hello %d: got %v, want ErrBadHello", i, err)
		}
	}
}

// --- stream semantics ---

// checkDedupBySeq pins the memlog's at-most-once apply: a resync that
// replays history must not double-apply, and a gap must be refused.
func checkDedupBySeq(t *testing.T) {
	m := newMemlog()
	for seq := uint64(1); seq <= 3; seq++ {
		ok, err := m.applyAt(seq, []byte{byte(seq)})
		if err != nil || !ok {
			t.Fatalf("seq %d: applied=%v err=%v", seq, ok, err)
		}
	}
	// Duplicate delivery (resync from offset 0) is dropped, not re-applied.
	if ok, err := m.applyAt(2, []byte{0xff}); err != nil || ok {
		t.Fatalf("duplicate: applied=%v err=%v", ok, err)
	}
	// A gap is a protocol violation.
	if _, err := m.applyAt(6, []byte{6}); err == nil {
		t.Fatal("gap accepted")
	}
	recs, err := m.Scan(0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("scan: %d recs, %v", len(recs), err)
	}
	for i, r := range recs {
		if !bytes.Equal(r, []byte{byte(i + 1)}) {
			t.Fatalf("rec %d mutated by duplicate: %x", i, r)
		}
	}
}

// checkResyncReplaysHistory speaks the protocol by hand: a standby that
// reconnects must receive the sender's full history again from offset zero,
// in identical order — the resend plus seq-dedup is what makes a lossy
// reconnect correct without any per-connection cursor state.
func checkResyncReplaysHistory(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 2, HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Prime(0, [][]byte{[]byte("a1"), []byte("a2")}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(1, [][]byte{[]byte("b1")}, 1); err != nil {
		t.Fatal(err)
	}
	s.Mirror(0, 3, []byte("a3"))

	readStream := func(n int) []frame {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if shards, err := checkHello(hello); err != nil || shards != 2 {
			t.Fatalf("hello: shards=%d err=%v", shards, err)
		}
		var got []frame
		for len(got) < n {
			f, err := readFrame(c)
			if err != nil {
				t.Fatal(err)
			}
			if f.kind != frameRecord {
				continue
			}
			f.rec = append([]byte(nil), f.rec...)
			got = append(got, f)
		}
		return got
	}

	first := readStream(4) // connection drops after a partial read elsewhere
	again := readStream(4)
	for i := range first {
		a, b := first[i], again[i]
		if a.shard != b.shard || a.seq != b.seq || !bytes.Equal(a.rec, b.rec) {
			t.Fatalf("resync diverged at %d: %+v vs %+v", i, a, b)
		}
	}
	// The stream preserves store order per shard.
	next := map[uint32]uint64{0: 1, 1: 1}
	for _, f := range first {
		if f.seq != next[f.shard] {
			t.Fatalf("shard %d: seq %d, want %d", f.shard, f.seq, next[f.shard])
		}
		next[f.shard]++
	}
}

// --- lease ---

func checkLeaseHeartbeatHolds(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stores := []storage.Backend{storage.NewMemBackend(8)}
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: 250 * time.Millisecond, RedialEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if sb.PrimaryDown() {
			t.Fatal("lease expired while the primary was heartbeating")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sb.Stats().Connected {
		t.Fatal("standby never attached")
	}
}

func checkLeaseExpires(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stores := []storage.Backend{storage.NewMemBackend(8)}
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: 100 * time.Millisecond, RedialEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	waitAttached(t, sb)
	if sb.PrimaryDown() {
		t.Fatal("lease expired under live heartbeats")
	}
	s.Close() // primary dies: stream and heartbeats stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := sb.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("failover detection took %v", waited)
	}
}

// --- promotion over a live core proxy ---

// conformanceConfig mirrors core's test configuration: a small ORAM so
// epochs are cheap, deterministic seeds, auto-scheduled batches.
func conformanceConfig(seed uint64) core.Config {
	return core.Config{
		Params: ringoram.Params{
			NumBlocks: 128,
			Z:         4,
			S:         6,
			A:         4,
			KeySize:   24,
			ValueSize: 64,
			Seed:      seed,
		},
		Key:            cryptoutil.KeyFromSeed([]byte("replica-conformance")),
		ReadBatches:    2,
		ReadBatchSize:  8,
		WriteBatchSize: 8,
		BatchInterval:  time.Millisecond,
	}
}

// haPair is an in-process primary/standby deployment over shared in-memory
// backends — the same topology the binaries build, minus the client wire.
type haPair struct {
	raw     []storage.Backend // shared stores (what a real deployment's network reaches)
	views   []storage.Backend // the primary's fenced views
	cfg     core.Config
	sender  *Sender
	primary *core.Proxy
	standby *Standby
}

func newHAPair(t *testing.T, shards int, acked bool) *haPair {
	t.Helper()
	cfg := conformanceConfig(7)
	raw := make([]storage.Backend, shards)
	views := make([]storage.Backend, shards)
	for i := range raw {
		raw[i] = storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
		// The primary fences at startup (as obladi.Open does when
		// replicating): holding a generation is what lets promotion
		// revoke it — a raw, token-0 handle could never be fenced out.
		view, _, err := raw[i].(storage.Fenceable).AcquireFence()
		if err != nil {
			t.Fatal(err)
		}
		views[i] = view
	}
	sender, err := NewSender("127.0.0.1:0", SenderConfig{
		Shards:         shards,
		Acked:          acked,
		HeartbeatEvery: 5 * time.Millisecond,
		BarrierTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicator = sender
	primary, err := core.NewSharded(views, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.WALConfigFor(cfg, 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := NewStandby(sender.Addr(), raw, StandbyConfig{
		LeaseTimeout: 150 * time.Millisecond,
		RedialEvery:  5 * time.Millisecond,
		Decode:       &base,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &haPair{raw: raw, views: views, cfg: cfg, sender: sender, primary: primary, standby: standby}
	t.Cleanup(func() {
		h.standby.Stop()
		h.sender.Close()
		h.primary.Close()
	})
	return h
}

func waitAttached(t *testing.T, sb *Standby) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !sb.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// commit writes key=value in one transaction and returns Commit's verdict.
func commit(p *core.Proxy, key string, value []byte) error {
	tx := p.Begin()
	if err := tx.Write(key, value); err != nil {
		return err
	}
	return tx.Commit()
}

// readKey reads key in its own transaction, retrying ErrEpochFull (which
// admission-control sheds also match): ordinary client-visible
// backpressure, not a correctness signal.
func readKey(t *testing.T, p *core.Proxy, key string) ([]byte, bool) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		tx := p.Begin()
		v, found, err := tx.Read(key)
		tx.Abort()
		if err == nil {
			return v, found
		}
		if !errors.Is(err, core.ErrEpochFull) || attempt >= 50 {
			t.Fatalf("read %s: %v", key, err)
		}
	}
}

// kill simulates the primary host dying: the replication stream and
// heartbeats stop (sender gone), and the proxy is abandoned un-shut-down —
// whatever it was doing mid-epoch is lost exactly as a SIGKILL would lose it.
func (h *haPair) kill() {
	h.sender.Close()
}

// promote waits out the lease and promotes the standby, returning the
// recovered state for the new primary.
func (h *haPair) promote(t *testing.T) *PromoteResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.standby.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	base, err := core.WALConfigFor(h.cfg, 0, len(h.raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.standby.Promote(base)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	return res
}

// newPrimaryConfig strips the dead sender off the config for the promoted
// proxy (a real deployment would install its own replica listener here).
func (h *haPair) newPrimaryConfig() core.Config {
	cfg := h.cfg
	cfg.Replicator = nil
	return cfg
}

func checkPromotionFencesZombie(t *testing.T) {
	h := newHAPair(t, 2, false)
	waitAttached(t, h.standby)
	for i := 0; i < 4; i++ {
		if err := commit(h.primary, fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	// The zombie primary's handles predate the promotion fence: every
	// mutation — in particular extending the recovery log — must now fail.
	for i, v := range h.views {
		if _, err := v.Append([]byte("zombie append")); !errors.Is(err, storage.ErrFenced) {
			t.Fatalf("shard %d: zombie append: got %v, want ErrFenced", i, err)
		}
	}
	// And a transaction on the zombie proxy cannot be acknowledged: its
	// next boundary hits the fence and fails the commit loudly.
	tx := h.primary.Begin()
	err := tx.Write("zombie-key", []byte("z"))
	if err == nil {
		err = tx.Commit()
	}
	if err == nil {
		t.Fatal("zombie proxy acknowledged a commit after promotion")
	}
	// The new primary serves the full committed state.
	p2, err := core.NewShardedFromRecoveries(res.Stores, h.newPrimaryConfig(), res.Recoveries)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 0; i < 4; i++ {
		v, found := readKey(t, p2, fmt.Sprintf("key-%d", i))
		if !found || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("key-%d after failover: v=%q found=%v", i, v, found)
		}
	}
}

// checkReplayEquivalence proves the standby's continuously-replayed state is
// the state cold recovery computes: after promotion each warm log equals the
// durable store log byte for byte, and the recovery summaries match what a
// from-scratch wal.Recover over the store reads back.
func checkReplayEquivalence(t *testing.T) {
	h := newHAPair(t, 2, false)
	waitAttached(t, h.standby)
	for i := 0; i < 6; i++ {
		if err := commit(h.primary, fmt.Sprintf("eq-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	for i := range h.raw {
		warm, err := h.standby.logs[i].Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		durable, err := res.Stores[i].Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm) != len(durable) {
			t.Fatalf("shard %d: warm log has %d records, store has %d", i, len(warm), len(durable))
		}
		for j := range warm {
			if !bytes.Equal(warm[j], durable[j]) {
				t.Fatalf("shard %d: record %d differs between warm log and store", i, j)
			}
		}
	}
	// Cold recovery straight off the durable logs must agree with the
	// promotion's recovery summaries.
	for i := range h.raw {
		cfg, err := core.WALConfigFor(h.cfg, i, len(h.raw))
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.New(res.Stores[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cold *wal.Recovery
		if i == 0 {
			cold, err = l.Recover()
		} else {
			cold, err = l.RecoverWithFloor(res.Recoveries[0].CommittedEpoch)
		}
		if err != nil {
			t.Fatalf("cold recovery shard %d: %v", i, err)
		}
		warm := res.Recoveries[i]
		if cold.HasCommit != warm.HasCommit || cold.CommittedEpoch != warm.CommittedEpoch {
			t.Fatalf("shard %d: cold recovery (commit=%v epoch=%d) != standby replay (commit=%v epoch=%d)",
				i, cold.HasCommit, cold.CommittedEpoch, warm.HasCommit, warm.CommittedEpoch)
		}
	}
	// The standby decoded the committed epoch off the stream as it flowed.
	if got, want := h.standby.Stats().CommitEpoch, res.Recoveries[0].CommittedEpoch; got == 0 || got > want {
		t.Fatalf("streamed commit epoch %d, recovered %d", got, want)
	}
}

// checkZeroAckedLoss is the contract the whole subsystem exists for: every
// transaction whose Commit returned nil on the primary is present after
// failover — in local-durable mode because promotion tops the warm logs up
// from the fsynced tail, in replica-acked mode additionally because the ack
// was gated on standby receipt.
func checkZeroAckedLoss(t *testing.T, acked bool) {
	h := newHAPair(t, 2, acked)
	waitAttached(t, h.standby)
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("acked-%02d", i)
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := commit(h.primary, key, val); err != nil {
			t.Fatalf("commit %s: %v", key, err)
		}
		want[key] = val // Commit acked: must survive the handoff
	}
	// A multi-key read-modify-write transaction, acked as a unit.
	for attempt := 0; ; attempt++ {
		tx := h.primary.Begin()
		_, _, err := tx.Read("acked-00")
		if err == nil {
			err = tx.Write("acked-00", []byte("rewritten"))
		}
		if err == nil {
			err = tx.Write("extra", []byte("pair"))
		}
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			break
		}
		tx.Abort()
		if !errors.Is(err, core.ErrEpochFull) || attempt >= 50 {
			t.Fatalf("multi-key commit: %v", err)
		}
	}
	want["acked-00"], want["extra"] = []byte("rewritten"), []byte("pair")

	if acked {
		// Every barrier had the standby attached, so none may have degraded.
		if st := h.sender.Stats(); st.BarriersDegraded != 0 {
			t.Fatalf("%d barriers degraded with a live standby", st.BarriersDegraded)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	p2, err := core.NewShardedFromRecoveries(res.Stores, h.newPrimaryConfig(), res.Recoveries)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for key, val := range want {
		v, found := readKey(t, p2, key)
		if !found {
			t.Fatalf("acknowledged commit lost across failover: %s", key)
		}
		if !bytes.Equal(v, val) {
			t.Fatalf("%s after failover: got %q want %q", key, v, val)
		}
	}
	// And the new primary is live: it accepts and commits new transactions.
	if err := commit(p2, "post-failover", []byte("alive")); err != nil {
		t.Fatalf("commit on promoted primary: %v", err)
	}
}
