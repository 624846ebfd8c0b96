package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/kvtxn"
)

// Sides of the transaction interface. The client side wraps the DB the
// load generator calls; the server side wraps the proxy's kvtxn.DB under
// the wire server (or directly under the client side when there is no
// wire).
const (
	sideClient = iota
	sideServer
)

// Operations recorded per transaction.
const (
	opTxn = iota // root: Begin to Commit/Abort return
	opRead
	opCommit
)

// opSpan is one traced transaction-level call.
type opSpan struct {
	side, op uint8
	txn      uint64
	start    time.Duration // since the probe's origin
	dur      time.Duration
	sig      string // read: the keys read; commit: every key the txn touched
	ok       bool
}

func (s opSpan) end() time.Duration { return s.start + s.dur }

// dbProbe collects the spans of one side.
type dbProbe struct {
	side     uint8
	origin   time.Time
	tracing  *atomic.Bool
	nextTxn  atomic.Uint64
	keysRead atomic.Int64 // keys requested by traced reads

	mu    sync.Mutex
	spans []opSpan
}

func newDBProbe(side uint8, origin time.Time, tracing *atomic.Bool) *dbProbe {
	return &dbProbe{side: side, origin: origin, tracing: tracing}
}

func (p *dbProbe) record(s opSpan) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

func (p *dbProbe) takeSpans() []opSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.spans
	p.spans = nil
	return out
}

// sigOf is the order-independent signature of a key set.
func sigOf(keys []string) string {
	if len(keys) == 1 {
		return keys[0]
	}
	s := append([]string(nil), keys...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// timedDB wraps a kvtxn.DB (and its CtxDB face) for probe p.
type timedDB struct {
	inner kvtxn.DB
	p     *dbProbe
}

func (d timedDB) Begin() kvtxn.Txn { return d.wrap(d.inner.Begin()) }

// BeginCtx keeps the context binding the wire server relies on to tie a
// session's transaction to its connection.
func (d timedDB) BeginCtx(ctx context.Context) kvtxn.Txn {
	if cdb, ok := d.inner.(kvtxn.CtxDB); ok {
		return d.wrap(cdb.BeginCtx(ctx))
	}
	return d.wrap(d.inner.Begin())
}

func (d timedDB) Close() error { return d.inner.Close() }

func (d timedDB) wrap(tx kvtxn.Txn) kvtxn.Txn {
	t := &timedTxn{inner: tx, p: d.p}
	if d.p.tracing.Load() {
		t.on = true
		t.id = d.p.nextTxn.Add(1)
		t.t0 = time.Now()
	}
	if atx, ok := tx.(kvtxn.AsyncTxn); ok {
		return &timedAsyncTxn{timedTxn: t, async: atx}
	}
	return t
}

// timedTxn times one transaction's reads and commit. Tracing is decided
// once, at Begin, so a transaction is either fully traced or not at all.
type timedTxn struct {
	inner kvtxn.Txn
	p     *dbProbe
	on    bool
	id    uint64
	t0    time.Time
	keys  map[string]struct{}
	done  bool
}

func (t *timedTxn) touch(keys ...string) {
	if !t.on {
		return
	}
	if t.keys == nil {
		t.keys = make(map[string]struct{}, 8)
	}
	for _, k := range keys {
		t.keys[k] = struct{}{}
	}
}

func (t *timedTxn) span(op uint8, t0 time.Time, sig string, ok bool) {
	t.p.record(opSpan{
		side: t.p.side, op: op, txn: t.id,
		start: t0.Sub(t.p.origin), dur: time.Since(t0),
		sig: sig, ok: ok,
	})
}

func (t *timedTxn) Read(key string) ([]byte, bool, error) {
	if !t.on {
		return t.inner.Read(key)
	}
	t.touch(key)
	t.p.keysRead.Add(1)
	t0 := time.Now()
	v, found, err := t.inner.Read(key)
	t.span(opRead, t0, key, err == nil)
	return v, found, err
}

func (t *timedTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	if !t.on {
		return t.inner.ReadMany(keys)
	}
	t.touch(keys...)
	t.p.keysRead.Add(int64(len(keys)))
	t0 := time.Now()
	res, err := t.inner.ReadMany(keys)
	t.span(opRead, t0, sigOf(keys), err == nil)
	return res, err
}

func (t *timedTxn) Write(key string, value []byte) error {
	t.touch(key)
	return t.inner.Write(key, value)
}

func (t *timedTxn) Delete(key string) error {
	t.touch(key)
	return t.inner.Delete(key)
}

func (t *timedTxn) Commit() error {
	if !t.on {
		return t.inner.Commit()
	}
	t0 := time.Now()
	err := t.inner.Commit()
	t.span(opCommit, t0, t.sig(), err == nil)
	t.finish(err == nil)
	return err
}

func (t *timedTxn) Abort() {
	t.inner.Abort()
	if t.on {
		t.finish(false)
	}
}

func (t *timedTxn) sig() string {
	keys := make([]string, 0, len(t.keys))
	for k := range t.keys {
		keys = append(keys, k)
	}
	return sigOf(keys)
}

// finish records the root span once (Abort after Commit is a no-op).
func (t *timedTxn) finish(ok bool) {
	if t.done {
		return
	}
	t.done = true
	t.span(opTxn, t.t0, "", ok)
}

// timedAsyncTxn keeps kvtxn.AsyncTxn visible: the wire server pipelines a
// session's reads only through it.
type timedAsyncTxn struct {
	*timedTxn
	async kvtxn.AsyncTxn
}

func (t *timedAsyncTxn) ReadAsync(key string) kvtxn.ReadFuture {
	if !t.on {
		return t.async.ReadAsync(key)
	}
	t.touch(key)
	t.p.keysRead.Add(1)
	return &timedFuture{f: t.async.ReadAsync(key), t: t.timedTxn, key: key, t0: time.Now()}
}

// timedFuture spans a read from its registration to the Wait that
// resolves it.
type timedFuture struct {
	f    kvtxn.ReadFuture
	t    *timedTxn
	key  string
	t0   time.Time
	once sync.Once
}

func (f *timedFuture) Wait(ctx context.Context) ([]byte, bool, error) {
	v, found, err := f.f.Wait(ctx)
	f.once.Do(func() { f.t.span(opRead, f.t0, f.key, err == nil) })
	return v, found, err
}
