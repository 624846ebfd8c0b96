package main

import (
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/storage"
)

// capabilities reports which optional storage interfaces b implements.
func capabilities(b storage.Backend) [3]bool {
	_, lb := b.(storage.LogBatcher)
	_, cb := b.(storage.EpochCommitBatcher)
	_, f := b.(storage.Fenceable)
	return [3]bool{lb, cb, f}
}

func testProbe() *storeProbe {
	var tracing atomic.Bool
	tracing.Store(true)
	return newStoreProbe(time.Now(), &tracing, func() uint64 { return 7 })
}

// TestWrapKeepsCapabilities checks, for the backend of every workload, that
// the timing wrapper implements exactly the optional interfaces the
// backend does, also when wrapped twice (server side under proxy side).
func TestWrapKeepsCapabilities(t *testing.T) {
	const buckets = 64
	group, err := storage.OpenDiskGroupOpts(t.TempDir(), 2, buckets, storage.DiskOptions{LogHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	views := group.Backends()
	srv, err := storage.NewServer(views[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := storage.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cases := []struct {
		name string
		raw  storage.Backend
		want [3]bool // LogBatcher, EpochCommitBatcher, Fenceable
	}{
		{"mem (tpcc-cpu, ycsb-open)", storage.NewMemBackend(buckets), [3]bool{false, false, true}},
		{"logheap group view (smallbank-durable server side)", views[0], [3]bool{true, true, false}},
		{"storage client (smallbank-durable proxy side)", client, [3]bool{false, false, true}},
	}
	for _, c := range cases {
		if got := capabilities(c.raw); got != c.want {
			t.Errorf("%s: unwrapped capabilities %v, expected %v", c.name, got, c.want)
		}
		once := wrapStore(c.raw, 0, testProbe())
		twice := wrapStore(once, 0, testProbe())
		for _, w := range []storage.Backend{once, twice} {
			if got := capabilities(w); got != capabilities(c.raw) {
				t.Errorf("%s: wrapped capabilities %v, unwrapped %v", c.name, got, capabilities(c.raw))
			}
		}
	}

	// The proxy takes the one-fsync boundary only when every shard reports
	// the same commit stream; wrapping must not change the answer.
	a := wrapStore(wrapStore(views[0], 0, testProbe()), 0, testProbe()).(storage.EpochCommitBatcher)
	b := wrapStore(views[1], 1, testProbe()).(storage.EpochCommitBatcher)
	if a.CommitStream() != views[0].(storage.EpochCommitBatcher).CommitStream() || a.CommitStream() != b.CommitStream() {
		t.Error("wrapped shards no longer report their shared commit stream")
	}

	// A fenced view is wrapped too: its calls are measured and its
	// capabilities kept.
	p := testProbe()
	view, _, err := wrapStore(client, 0, p).(storage.Fenceable).AcquireFence()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if n := len(p.takeSpans()); n != 1 {
		t.Errorf("a call through the fenced view recorded %d spans, expected 1", n)
	}
	rawView, _, err := client.AcquireFence()
	if err != nil {
		t.Fatal(err)
	}
	if capabilities(view) != capabilities(rawView) {
		t.Errorf("fenced view capabilities %v, unwrapped %v", capabilities(view), capabilities(rawView))
	}
}

// TestWrappedBackendConformance runs the storage conformance suite through
// the wrapper: forwarding must not change any result.
func TestWrappedBackendConformance(t *testing.T) {
	storage.RunBackendConformance(t, func(t *testing.T) storage.Backend {
		return wrapStore(storage.NewMemBackend(16), 0, testProbe())
	})
}

// TestWrapperRecordsSpans checks that a traced call is recorded with its
// kind, shard, epoch and payload size.
func TestWrapperRecordsSpans(t *testing.T) {
	p := testProbe()
	b := wrapStore(storage.NewMemBackend(4), 3, p)
	if err := b.WriteBuckets([]storage.BucketWrite{{Bucket: 1, Epoch: 5, Slots: [][]byte{[]byte("abc")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append([]byte{walKindBatch, 0}); err != nil {
		t.Fatal(err)
	}
	spans := p.takeSpans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, expected 2", len(spans))
	}
	if s := spans[0]; s.kind != kindWriteBuckets || s.shard != 3 || s.epoch != 5 || s.bytes != 3 {
		t.Errorf("write span %+v", s)
	}
	if s := spans[1]; s.kind != kindWALAppend || s.epoch != 7 || !s.inline || !s.batch {
		t.Errorf("append span %+v", s)
	}
	if p.totalBytes() != 5 {
		t.Errorf("counted %d payload bytes, expected 5", p.totalBytes())
	}
}
