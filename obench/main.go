// Command obench is Obladi's benchmark: one command that runs a named
// workload against the real stack, checks its outputs, and prints every
// end-to-end metric (or, traced, every per-layer metric) with its unit and
// sample count. The last line of standard output is one JSON object.
//
//	obench --workload smallbank-durable --seed 1 --seconds 10 --trace 0
//
// Everything is measured from outside the program: the benchmark calls the
// layers' public functions and wraps the boundaries it times. See
// README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"obladi/internal/kvtxn"
)

const (
	setups           = 5    // set-ups per run; setup_s and recovery_s are medians over them
	sliceCommits     = 1000 // commits per slice of the untraced window
	minSlices        = 3
	byteSamplePeriod = 50 * time.Millisecond
	warmup           = 1500 * time.Millisecond
	giveUp           = 5 * time.Second // open-loop arrival not committed by then: failed
	buildDir         = ".bench_build"
	probeKey         = "obench/rp"
	mib              = 1 << 20
	probeTries       = 200
	queuePeriod      = time.Millisecond
)

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type metricSet struct{ list *[]metric }

func newMetricSet() metricSet { return metricSet{list: new([]metric)} }

func (m metricSet) add(name string, value float64, unit string, samples int) {
	*m.list = append(*m.list, metric{name, value, unit, samples})
}

func main() {
	name := flag.String("workload", "", "workload: smallbank-durable | tpcc-cpu | ycsb-open")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same transactions")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	capacity := flag.Int("capacity", 0, "if > 0, drive the workload closed-loop with this many sessions instead (sizes ycsb-open's offered rate)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: obench --workload NAME --seed N --seconds S --trace 0|1 (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	if *capacity > 0 {
		w.rate = 0
		w.clients = *capacity
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	stamp(out, w, *seed, *seconds, *trace == 1)
	if res != nil {
		for _, m := range *res.metrics.list {
			fmt.Fprintf(out, "%-44s %14.6g %-12s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
		for _, line := range res.notes {
			fmt.Fprintln(out, "#", line)
		}
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "obench:", err)
		os.Exit(1)
	}
	vals := make(map[string]any, len(*res.metrics.list))
	for _, m := range *res.metrics.list {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if *trace == 0 {
				out.Flush()
				fmt.Fprintf(os.Stderr, "obench: metric %s has no value\n", m.name)
				os.Exit(1)
			}
			v = 0 // a layer with no samples in the traced window (n=0 above)
		}
		vals[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": vals,
	})
	fmt.Fprintln(out, string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// stamp prints what a result depends on besides the code: the host, the
// toolchain, the commit, the seed and the workload's parameters.
func stamp(out *bufio.Writer, w workloadSpec, seed uint64, seconds int, trace bool) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(strings.SplitN(l, ":", 2)[1])
				break
			}
		}
	}
	st := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": rev,
		"stack":   w.stack,
		"clients": w.clients, "rate_per_s": w.rate, "latency_limit_ms": ms(w.limit),
		"app": w.newApp().params(),
	}
	b, _ := json.Marshal(st)
	fmt.Fprintf(out, "# stamp %s\n", b)
}

type result struct {
	metrics           metricSet
	attempted, failed int64
	notes             []string
}

// run executes one benchmark run: set up and crash-and-recover a fresh
// deployment (several times), warm up, measure, check, crash and recover
// once more, and check again.
func run(w workloadSpec, seed uint64, dur time.Duration, trace bool) (*result, error) {
	res := &result{metrics: newMetricSet()}
	base, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	origin := time.Now()

	// Set-up: ORAM initialization plus data load, repeated; the last
	// deployment is the one measured. Each fresh deployment is then
	// crashed and reopened once for recovery_s: its recovery log holds the
	// load and a few idle epochs, so every sample recovers the same work,
	// whatever the speed of the run that follows.
	var s *stack
	var a app
	var setupTimes, recTimes []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		dir := ""
		if w.stack.Durable {
			dir = filepath.Join(base, fmt.Sprintf("data-%d", i))
		}
		s, a = newStack(w.stack, dir, origin), w.newApp()
		t0 := time.Now()
		if err := s.open(); err != nil {
			s.close()
			return nil, err
		}
		if err := a.load(s.db); err != nil {
			s.close()
			return nil, fmt.Errorf("loading: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		t, err := crashAndRecover(s, i)
		if err != nil {
			s.close()
			return nil, err
		}
		recTimes = append(recTimes, t)
	}
	defer func() { s.close() }()

	// Load runs from here until the measured windows end.
	d := newLoadGen(time.Duration(w.stack.ReadBatches+1) * w.stack.Delta)
	gen := func(rng *rand.Rand) logicalTxn { return a.next(s.db, rng) }
	if w.rate > 0 {
		d.openLoop(w.rate, seed, giveUp, gen)
	} else {
		d.closedLoop(w.clients, seed, gen)
	}
	st0, t0 := s.proxy.Stats(), time.Now()
	time.Sleep(warmup)
	if st1 := s.proxy.Stats(); st1.Epochs > st0.Epochs {
		d.epoch.Store(int64(time.Since(t0)) / int64(st1.Epochs-st0.Epochs))
	}

	measure := dur
	if trace {
		measure = dur / 2
	}
	// The storage byte counter is sampled through the untraced window so
	// the end-to-end metrics can be computed per slice (see e2e).
	var bytesAt []byteSample
	d.rec.begin()
	start := time.Now()
	for tick := time.NewTicker(byteSamplePeriod); ; {
		bytesAt = append(bytesAt, byteSample{time.Since(start), s.cliStore.totalBytes()})
		if time.Since(start) >= measure {
			tick.Stop()
			break
		}
		<-tick.C
	}
	plain := d.rec.end()

	var traced tracedWindow
	if trace {
		traced = measureTraced(s, d, measure)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapInuse) / mib

	if plain.commits == 0 {
		return nil, errors.New("no transaction committed in the measured window")
	}
	if err := a.verify(s.db); err != nil {
		return nil, fmt.Errorf("correctness gate after the run: %w", err)
	}

	// The durability gate: crash after the run, reopen over the same
	// storage (§8 recovery) and check again.
	after, err := crashAndRecover(s, setups)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("recovery after the run: %.3f s (not a metric: it grows with the run's length, since the recovery log is never truncated)", after))
	if err := a.verify(s.db); err != nil {
		return nil, fmt.Errorf("correctness gate after crash and recovery: %w", err)
	}

	res.attempted = plain.logical + traced.w.logical
	res.failed = plain.failed + traced.w.failed
	if !trace {
		if err := e2e(res.metrics, w, plain, bytesAt, median(setupTimes), median(recTimes), heapMB); err != nil {
			return nil, err
		}
		return res, nil
	}
	if traced.err != nil {
		return res, traced.err
	}
	*res.metrics.list = *traced.metrics.list
	overhead := 1 - ratio(float64(traced.w.commits)/traced.w.dur.Seconds(), float64(plain.commits)/plain.dur.Seconds())
	res.metrics.add("trace.overhead_frac", overhead, "frac", int(plain.commits+traced.w.commits))
	res.notes = append(res.notes, traced.notes...)
	if err := writeSpans(w.name, seed, traced); err != nil {
		return res, err
	}
	return res, nil
}

// crashAndRecover stops the proxy without draining it (the unfinished
// epoch's transactions abort, as in a kill), shuts the storage side down,
// reopens everything over the same storage and commits one transaction.
// It returns the seconds from the reopen to that commit's acknowledgement.
func crashAndRecover(s *stack, cycle int) (float64, error) {
	runtime.GC() // every cycle starts from the same heap, not from the last one's garbage
	s.crash()
	t0 := time.Now()
	if err := s.open(); err != nil {
		return 0, fmt.Errorf("reopening after crash: %w", err)
	}
	if err := kvtxn.RunWithRetries(s.db, probeTries, func(tx kvtxn.Txn) error {
		return tx.Write(probeKey, []byte{byte(cycle)})
	}); err != nil {
		return 0, fmt.Errorf("first commit after recovery: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// byteSample is the storage byte counter at one moment of a window.
type byteSample struct {
	at    time.Duration
	bytes int64
}

// bytesBetween reads the counter's growth between two moments from the
// samples nearest to them.
func bytesBetween(samples []byteSample, lo, hi time.Duration) int64 {
	at := func(t time.Duration) int64 {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= t })
		return samples[min(i, len(samples)-1)].bytes
	}
	return at(hi) - at(lo)
}

// e2e computes the end-to-end metrics of an untraced window. The window is
// cut into slices of sliceCommits consecutive commits; every rate, ratio
// and percentile is the median of its per-slice values, so a burst of
// outside load on the host moves a slice or two, not the result. With a
// thousand commits per slice, each slice's p99 has ten samples above it.
// A window too slow for minSlices such slices is cut into minSlices
// smaller ones.
func e2e(m metricSet, w workloadSpec, win window, bytesAt []byteSample, setupS, recoveryS, heapMB float64) error {
	if len(win.ackAt) < minSlices {
		return fmt.Errorf("%d commits in the measured window; the metrics need at least %d", len(win.ackAt), minSlices)
	}
	size := min(sliceCommits, len(win.ackAt)/minSlices)
	var tput, p50, p99, commitRatio, goodput, bytesPerTxn []float64
	lo := time.Duration(0)
	for first := 0; first+size <= len(win.ackAt); first += size {
		hi := win.ackAt[first+size-1]
		lat := win.lat[first : first+size]
		good := 0
		for _, l := range lat {
			if l <= w.limit {
				good++
			}
		}
		attempts := 0
		for _, at := range win.attemptAt {
			if at > lo && at <= hi {
				attempts++
			}
		}
		secs := (hi - lo).Seconds()
		tput = append(tput, float64(size)/secs)
		p50 = append(p50, durQuantile(lat, 0.5))
		p99 = append(p99, durQuantile(lat, 0.99))
		commitRatio = append(commitRatio, ratio(float64(size), float64(attempts)))
		goodput = append(goodput, float64(good)/secs)
		bytesPerTxn = append(bytesPerTxn, float64(bytesBetween(bytesAt, lo, hi))/float64(size))
		lo = hi
	}
	n := int(win.commits)
	m.add("throughput_txn_s", median(tput), "txn/s", n)
	m.add("latency_p50_ms", median(p50), "ms", n)
	m.add("latency_p99_ms", median(p99), "ms", n)
	m.add("commit_ratio", median(commitRatio), "ratio", int(win.attempts))
	m.add("goodput_txn_s", median(goodput), "txn/s", n)
	m.add("storage_bytes_per_txn", median(bytesPerTxn), "B/txn", n)
	m.add("setup_s", setupS, "s", setups)
	m.add("recovery_s", recoveryS, "s", setups)
	m.add("heap_mb", heapMB, "MB", 1)
	return nil
}

// tracedWindow is the traced half of a run: the load generator's view plus
// every span and counter the probes collected.
type tracedWindow struct {
	w       window
	metrics metricSet
	notes   []string
	err     error // trace-shape guard
	cliOps  []opSpan
	srvOps  []opSpan
	cliSt   []storeSpan
	srvSt   []storeSpan
}

type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux; elsewhere CPU time reads as 0.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   samples[0].Value.Float64(),
		allCPU:  samples[1].Value.Float64(),
	}
}

// measureTraced runs the traced window and derives the per-layer metrics.
func measureTraced(s *stack, d *loadGen, dur time.Duration) tracedWindow {
	tw := tracedWindow{metrics: newMetricSet()}
	m := tw.metrics
	s.cliStore.takeSpans()
	s.srvStore.takeSpans()
	s.cliDB.takeSpans()
	s.srvDB.takeSpans()
	wire0, keys0 := s.wire.bytes.Load(), s.srvDB.keysRead.Load()
	st0, p0 := s.proxy.Stats(), snapProc()

	stopQ := make(chan struct{})
	qmax := make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(queuePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, s.proxy.PendingFetches())
			case <-stopQ:
				qmax <- peak
				return
			}
		}
	}()
	s.tracing.Store(true)
	d.rec.begin()
	time.Sleep(dur)
	tw.w = d.rec.end()
	s.tracing.Store(false)
	close(stopQ)
	queuePeak := <-qmax
	st1, p1 := s.proxy.Stats(), snapProc()
	wire := s.wire.bytes.Load() - wire0
	tw.cliOps, tw.srvOps = s.cliDB.takeSpans(), s.srvDB.takeSpans()
	tw.cliSt, tw.srvSt = s.cliStore.takeSpans(), s.srvStore.takeSpans()

	win := tw.w
	commits := float64(win.commits)
	attempts := float64(win.attempts)
	epochs := float64(st1.Epochs - st0.Epochs)
	epochMs := ratio(ms(win.dur), epochs)

	m.add("loadgen.lag_p99_ms", durQuantile(win.lag, 0.99), "ms", len(win.lag))
	m.add("clientproto.bytes_per_txn", ratio(float64(wire), commits), "B/txn", int(win.commits))
	selfTimes(m, tw.cliOps, tw.srvOps, win.commits)

	m.add("core.epoch_ms", epochMs, "ms", int(epochs))
	m.add("core.txns_per_epoch", ratio(float64(st1.Committed-st0.Committed), epochs), "txn/epoch", int(epochs))
	realReads := float64(st1.RealReads - st0.RealReads)
	m.add("core.read_slot_util", ratio(realReads, float64(st1.ReadBatchSlots-st0.ReadBatchSlots)), "ratio", int(epochs))
	m.add("core.write_slot_util", ratio(float64(st1.RealWrites-st0.RealWrites), float64(st1.WriteSlots-st0.WriteSlots)), "ratio", int(epochs))
	// Stats.CacheHits is never incremented at this commit, so hits are
	// counted from outside: keys the proxy was asked to read, less those
	// shed, less those that took a batch slot.
	served := float64(s.srvDB.keysRead.Load()-keys0) - float64(st1.ShedReads-st0.ShedReads)
	m.add("core.cache_hit_ratio", ratio(served-realReads, served), "ratio", int(served))
	m.add("core.shed_per_attempt", ratio(float64(st1.ShedReads-st0.ShedReads), attempts), "ratio", int(win.attempts))
	m.add("core.queue_depth_max", float64(queuePeak), "count", int(dur/queuePeriod))
	m.add("mvtso.conflict_aborts_per_attempt", ratio(float64(st1.ConflictAborts-st0.ConflictAborts), attempts), "ratio", int(win.attempts))
	m.add("mvtso.cascading_aborts_per_attempt", ratio(float64(st1.CascadingAborts-st0.CascadingAborts), attempts), "ratio", int(win.attempts))
	m.add("ringoram.stash_peak", float64(st1.StashPeak), "blocks", 1)
	ex0, ex1 := st0.Executor, st1.Executor
	m.add("oramexec.remote_reads_per_epoch", ratio(float64(ex1.RemoteReads-ex0.RemoteReads), epochs), "count/epoch", int(epochs))
	m.add("oramexec.local_reads_per_epoch", ratio(float64(ex1.LocalReads-ex0.LocalReads), epochs), "count/epoch", int(epochs))
	m.add("oramexec.bucket_writes_per_epoch", ratio(float64(ex1.BucketWrites-ex0.BucketWrites), epochs), "count/epoch", int(epochs))
	m.add("oramexec.evictions_per_epoch", ratio(float64(ex1.Evictions-ex0.Evictions), epochs), "count/epoch", int(epochs))
	m.add("oramexec.reshuffles_per_epoch", ratio(float64(ex1.Reshuffles-ex0.Reshuffles), epochs), "count/epoch", int(epochs))

	cli, err := completeEpochs(tw.cliSt)
	if err == nil {
		var srv epochTable
		if srv, err = completeEpochs(tw.srvSt); err == nil {
			storageMetrics(m, cli, srv, s.cfg.Shards, s.cfg.Delta, s.cfg.ReadBatches, epochMs)
			if err = checkShape("proxy", cli); err == nil {
				err = checkShape("storage server", srv)
			}
			tw.notes = append(tw.notes, fmt.Sprintf("trace shape per epoch over %d epochs: %s", int(cli.n()), shapeSummary(cli)))
		}
	}
	tw.err = err

	m.add("proc.cpu_us_per_txn", ratio(float64((p1.cpu-p0.cpu)/time.Microsecond), commits), "us/txn", int(win.commits))
	m.add("proc.allocs_per_txn", ratio(float64(p1.mallocs-p0.mallocs), commits), "allocs/txn", int(win.commits))
	m.add("proc.gc_cpu_frac", ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU), "frac", 1)
	m.add("trace.throughput_txn_s", commits/win.dur.Seconds(), "txn/s", int(win.commits))
	return tw
}

// writeSpans writes the traced window's spans, one JSON object per line,
// under the build directory.
func writeSpans(workload string, seed uint64, tw tracedWindow) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	layers := [...]string{"client", "core"}
	ops := [...]string{"txn", "read", "commit"}
	for _, spans := range [][]opSpan{tw.cliOps, tw.srvOps} {
		for _, sp := range spans {
			enc.Encode(map[string]any{"layer": layers[sp.side], "op": ops[sp.op], "txn": sp.txn,
				"start_us": sp.start.Microseconds(), "dur_us": sp.dur.Microseconds(), "ok": sp.ok})
		}
	}
	for i, spans := range [][]storeSpan{tw.cliSt, tw.srvSt} {
		layer := [...]string{"storage.proxy", "storage.server"}[i]
		for _, sp := range spans {
			enc.Encode(map[string]any{"layer": layer, "op": kindNames[sp.kind], "shard": sp.shard,
				"epoch": sp.epoch, "start_us": sp.start.Microseconds(), "dur_us": sp.dur.Microseconds(), "bytes": sp.bytes})
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
