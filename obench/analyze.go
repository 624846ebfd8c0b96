package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of the samples (sorted in
// place); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time span since the probes' origin.
type interval struct{ lo, hi time.Duration }

// unionLen is the length of the union of the intervals (sorted in place).
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	var cur interval
	for i, x := range iv {
		if i == 0 || x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// epochTable is one side's storage spans bucketed by epoch, restricted to
// the epochs whose calls all fell inside the traced window.
type epochTable struct {
	first, last uint64 // complete epochs, inclusive
	byEpoch     map[uint64][]storeSpan
}

// completeEpochs trims the window's edges. Tags: reads and step-path WAL
// calls carry the epoch they run in; bucket flushes and storage commits
// carry their own epoch but run during the next one; the commit stage's
// WAL calls for epoch e run while e+1 is open. So the first tagged epoch
// may have missed calls made before tracing started, and the last two may
// not have flushed and committed before it stopped.
func completeEpochs(spans []storeSpan) (epochTable, error) {
	t := epochTable{byEpoch: make(map[uint64][]storeSpan)}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, s := range spans {
		if s.kind == kindOther {
			continue
		}
		lo, hi = min(lo, s.epoch), max(hi, s.epoch)
	}
	if hi < lo+4 {
		return t, fmt.Errorf("traced window saw %d epochs; need at least 5", hi-lo+1)
	}
	t.first, t.last = lo+1, hi-2
	for _, s := range spans {
		if s.kind != kindOther && s.epoch >= t.first && s.epoch <= t.last {
			t.byEpoch[s.epoch] = append(t.byEpoch[s.epoch], s)
		}
	}
	return t, nil
}

func (t epochTable) n() float64 { return float64(t.last - t.first + 1) }

// shapeKey is one cell of the adversary-visible schedule.
type shapeKey struct {
	shard int
	kind  callKind
}

// checkShape is the trace-shape guard: R, bread and bwrite fix how many
// storage calls of each kind every shard makes per epoch, so every
// complete epoch must show the same counts. A difference means the
// schedule the storage side observes depends on the workload.
func checkShape(side string, t epochTable) error {
	var ref map[shapeKey]int
	var refEpoch uint64
	for e := t.first; e <= t.last; e++ {
		got := make(map[shapeKey]int)
		for _, s := range t.byEpoch[e] {
			got[shapeKey{s.shard, s.kind}]++
		}
		if ref == nil {
			ref, refEpoch = got, e
			continue
		}
		keys := make(map[shapeKey]bool)
		for k := range got {
			keys[k] = true
		}
		for k := range ref {
			keys[k] = true
		}
		for k := range keys {
			if got[k] != ref[k] {
				return fmt.Errorf("trace shape (%s side): shard %d made %d %s calls in epoch %d but %d in epoch %d",
					side, k.shard, got[k], kindNames[k.kind], e, ref[k], refEpoch)
			}
		}
	}
	return nil
}

// shapeSummary renders the per-epoch schedule, e.g. "s0:read_slots=5".
func shapeSummary(t epochTable) string {
	got := make(map[shapeKey]int)
	for _, s := range t.byEpoch[t.first] {
		got[shapeKey{s.shard, s.kind}]++
	}
	var parts []string
	for k, n := range got {
		parts = append(parts, fmt.Sprintf("s%d:%s=%d", k.shard, kindNames[k.kind], n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// storageMetrics derives the storage.* and wal.* per-layer numbers from
// the proxy-side spans, and the server/wire split from the server side.
func storageMetrics(m metricSet, cli, srv epochTable, shards int, delta time.Duration, readBatches int, epochMs float64) {
	n := cli.n()
	durs := make(map[callKind][]time.Duration)
	busy := make(map[callKind]time.Duration)
	var bytesRead, bytesWritten, walBytes float64
	var appendDurs, syncDurs []time.Duration
	var appends, syncs float64
	var crit time.Duration
	for e := cli.first; e <= cli.last; e++ {
		readPerShard := make([]time.Duration, shards)
		var walCrit time.Duration
		for _, s := range cli.byEpoch[e] {
			durs[s.kind] = append(durs[s.kind], s.dur)
			busy[s.kind] += s.dur
			switch s.kind {
			case kindReadSlots:
				bytesRead += float64(s.bytes)
				readPerShard[s.shard] += s.dur
			case kindWriteBuckets:
				bytesWritten += float64(s.bytes)
			case kindWALAppend:
				walBytes += float64(s.bytes)
				appends++
				appendDurs = append(appendDurs, s.dur)
				if s.inline {
					syncs++
					syncDurs = append(syncDurs, s.dur)
				}
				if s.batch {
					walCrit += s.dur
				}
			case kindWALSync:
				syncs++
				syncDurs = append(syncDurs, s.dur)
			}
		}
		// Shards execute a batch's reads in parallel but append their
		// schedule records one after another.
		var readCrit time.Duration
		for _, d := range readPerShard {
			readCrit = max(readCrit, d)
		}
		crit += readCrit + walCrit
	}
	for _, k := range []callKind{kindReadSlots, kindWriteBuckets, kindCommitEpoch} {
		name := "storage." + kindNames[k]
		m.add(name+".calls_per_epoch", float64(len(durs[k]))/n, "count/epoch", len(durs[k]))
		m.add(name+".ms_p50", durQuantile(durs[k], 0.5), "ms", len(durs[k]))
		m.add(name+".ms_p99", durQuantile(durs[k], 0.99), "ms", len(durs[k]))
		m.add(name+".busy_ms_per_epoch", ms(busy[k])/n, "ms/epoch", len(durs[k]))
	}
	m.add("storage.bytes_read_per_epoch", bytesRead/n, "B/epoch", int(n))
	m.add("storage.bytes_written_per_epoch", bytesWritten/n, "B/epoch", int(n))

	var cliBusy, srvBusy time.Duration
	for _, k := range []callKind{kindReadSlots, kindWriteBuckets, kindCommitEpoch, kindWALAppend, kindWALSync} {
		cliBusy += busy[k]
	}
	for e := srv.first; e <= srv.last; e++ {
		for _, s := range srv.byEpoch[e] {
			srvBusy += s.dur
		}
	}
	m.add("storage.server_busy_ms_per_epoch", ms(srvBusy)/srv.n(), "ms/epoch", int(srv.n()))
	m.add("storage.wire_ms_per_epoch", ms(cliBusy)/n-ms(srvBusy)/srv.n(), "ms/epoch", int(n))

	m.add("wal.appends_per_epoch", appends/n, "count/epoch", int(appends))
	m.add("wal.syncs_per_epoch", syncs/n, "count/epoch", int(syncs))
	m.add("wal.bytes_per_epoch", walBytes/n, "B/epoch", int(n))
	m.add("wal.append_ms_p50", durQuantile(appendDurs, 0.5), "ms", len(appendDurs))
	m.add("wal.sync_ms_p50", durQuantile(syncDurs, 0.5), "ms", len(syncDurs))
	m.add("wal.busy_ms_per_epoch", ms(busy[kindWALAppend]+busy[kindWALSync])/n, "ms/epoch", int(appends))

	critMs := ms(crit) / n
	m.add("core.storage_crit_ms_per_epoch", critMs, "ms/epoch", int(n))
	m.add("core.residual_ms_per_epoch", epochMs-float64(readBatches+1)*ms(delta)-critMs, "ms/epoch", int(n))
}

// spanIndex finds server-side spans by signature.
type spanIndex map[string][]opSpan

func indexSpans(spans []opSpan, op uint8) spanIndex {
	ix := make(spanIndex)
	for _, s := range spans {
		if s.op == op {
			ix[s.sig] = append(ix[s.sig], s)
		}
	}
	for _, l := range ix {
		sort.Slice(l, func(i, j int) bool { return l[i].start < l[j].start })
	}
	return ix
}

// within returns the earliest span under sig that lies inside [lo, hi].
// Calls cannot be paired across the wire by id (the protocol carries none),
// so a client call is paired with the server calls for the same keys that
// it encloses in time.
func (ix spanIndex) within(sig string, lo, hi time.Duration) (opSpan, bool) {
	l := ix[sig]
	i := sort.Search(len(l), func(i int) bool { return l[i].start >= lo })
	for ; i < len(l) && l[i].start <= hi; i++ {
		if l[i].end() <= hi {
			return l[i], true
		}
	}
	return opSpan{}, false
}

// selfTimes pairs client-side calls with the server-side calls they
// caused and splits each transaction's time between the load generator
// (time outside any call), the client protocol (call time not covered by
// the server side) and the proxy (server-side call time).
func selfTimes(m metricSet, cli, srv []opSpan, committed int64) {
	reads, commits := indexSpans(srv, opRead), indexSpans(srv, opCommit)
	children := make(map[uint64][]interval)
	var readSelf, commitSelf []float64
	var protoSelf, coreTime time.Duration
	for _, c := range cli {
		if c.op == opTxn {
			continue
		}
		children[c.txn] = append(children[c.txn], interval{c.start, c.end()})
		var covered []interval
		if c.op == opCommit {
			if s, ok := commits.within(c.sig, c.start, c.end()); ok {
				covered = append(covered, interval{s.start, s.end()})
			}
		} else if s, ok := reads.within(c.sig, c.start, c.end()); ok {
			covered = append(covered, interval{s.start, s.end()})
		} else {
			for _, k := range strings.Split(c.sig, "\x00") {
				if s, ok := reads.within(k, c.start, c.end()); ok {
					covered = append(covered, interval{s.start, s.end()})
				}
			}
		}
		srvTime := unionLen(covered)
		self := c.dur - srvTime
		protoSelf += self
		coreTime += srvTime
		if c.op == opCommit {
			commitSelf = append(commitSelf, ms(self))
		} else {
			readSelf = append(readSelf, ms(self))
		}
	}
	var appSelf time.Duration
	for _, c := range cli {
		if c.op == opTxn {
			appSelf += c.dur - unionLen(children[c.txn])
		}
	}
	m.add("clientproto.read_self_ms_p50", quantile(readSelf, 0.5), "ms", len(readSelf))
	m.add("clientproto.commit_self_ms_p50", quantile(commitSelf, 0.5), "ms", len(commitSelf))
	per := float64(max(committed, 1))
	m.add("selftime.app_ms_per_txn", ms(appSelf)/per, "ms/txn", int(committed))
	m.add("selftime.clientproto_ms_per_txn", ms(protoSelf)/per, "ms/txn", int(committed))
	m.add("selftime.core_ms_per_txn", ms(coreTime)/per, "ms/txn", int(committed))

	var readWait, commitWait []float64
	for _, s := range srv {
		switch s.op {
		case opRead:
			readWait = append(readWait, ms(s.dur))
		case opCommit:
			commitWait = append(commitWait, ms(s.dur))
		}
	}
	m.add("core.read_wait_ms_p50", quantile(readWait, 0.5), "ms", len(readWait))
	m.add("core.read_wait_ms_p99", quantile(readWait, 0.99), "ms", len(readWait))
	m.add("core.commit_wait_ms_p50", quantile(commitWait, 0.5), "ms", len(commitWait))
	m.add("core.commit_wait_ms_p99", quantile(commitWait, 0.99), "ms", len(commitWait))
}
