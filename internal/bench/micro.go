package bench

import (
	"fmt"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
	"obladi/internal/workload"
)

// microParams builds the ORAM configuration for the Figure 10
// microbenchmarks: the paper instantiates 100K objects; quick mode shrinks
// to 4K with proportionally smaller Z/S/A.
func microParams(cfg Config, crypto bool) ringoram.Params {
	p := ringoram.Params{
		Z: 16, S: 24, A: 16,
		KeySize:           24,
		ValueSize:         64,
		Seed:              cfg.Seed,
		DisableEncryption: !crypto,
		TolerateCorrupt:   true, // the dummy backend returns garbage
	}
	if cfg.Quick {
		p.NumBlocks = 4_000
	} else {
		p.NumBlocks = 100_000
	}
	return p
}

// microBackend builds a backend for a latency profile over the geometry.
func microBackend(p ringoram.Params, prof storage.Profile, scale float64) storage.Backend {
	n := p.Geometry().NumBuckets
	if prof.Name == "dummy" {
		return storage.NewDummyBackend(n, 1)
	}
	return storage.WithLatency(storage.NewMemBackend(n), prof.Scaled(scale))
}

// microProfiles returns the four backends of Figure 10, in plot order.
func microProfiles(cfg Config) []storage.Profile {
	return storage.Profiles()
}

// runSeqOps runs n sequential ORAM ops and returns the duration.
func runSeqOps(seq *ringoram.Seq, mix *workload.Mix, n int, seed uint64) (time.Duration, error) {
	rng := newRand(seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		op := mix.Next(rng)
		if op.Kind == workload.OpRead {
			if _, _, err := seq.Read(op.Key); err != nil {
				return 0, err
			}
		} else if err := seq.Write(op.Key, []byte("v")); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runExecBatches drives the executor with read batches of the given size
// for nBatches epochs of batchesPerEpoch, returning ops and duration.
func runExecBatches(exec *oramexec.Executor, store storage.BucketStore, mix *workload.Mix, batchSize, batches, batchesPerEpoch int, seed uint64) (int, time.Duration, error) {
	rng := newRand(seed)
	ops := 0
	epoch := exec.Epoch()
	start := time.Now()
	for b := 0; b < batches; b++ {
		if b%batchesPerEpoch == 0 {
			epoch++
			exec.BeginEpoch(epoch)
		}
		readOps := make([]oramexec.ReadOp, batchSize)
		seen := make(map[string]bool, batchSize)
		for i := range readOps {
			// Distinct keys per batch (the proxy deduplicates upstream).
			for {
				k := mix.Next(rng).Key
				if !seen[k] {
					seen[k] = true
					readOps[i].Key = k
					break
				}
			}
		}
		plan, err := exec.PlanReadBatch(readOps)
		if err != nil {
			return 0, 0, err
		}
		if _, err := exec.Execute(plan); err != nil {
			return 0, 0, err
		}
		ops += batchSize
		if (b+1)%batchesPerEpoch == 0 {
			if _, err := exec.Flush(); err != nil {
				return 0, 0, err
			}
			if err := store.CommitEpoch(epoch); err != nil {
				return 0, 0, err
			}
		}
	}
	return ops, time.Since(start), nil
}

// Fig10a reproduces Figure 10a: sequential vs parallel vs parallel+crypto
// throughput at batch size 500 across the four backends.
func Fig10a(cfg Config) ([]Row, error) {
	batchSize := 500
	batches := 4
	seqOps := 400
	if cfg.Quick {
		batchSize, batches, seqOps = 100, 2, 60
	}
	var rows []Row
	for _, prof := range microProfiles(cfg) {
		scale := cfg.LatencyScale
		// Sequential (crypto on, as in canonical Ring ORAM).
		{
			p := microParams(cfg, true)
			backend := microBackend(p, prof, scale)
			seq, err := ringoram.NewSeq(oramexec.StoreAdapter{B: backend, Epoch: 1}, cryptoutil.KeyFromSeed([]byte("f10a")), p)
			if err != nil {
				return nil, err
			}
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			n := seqOps
			if prof.Name == "server WAN" {
				// WAN sequential ops cost ~path × RTT each; a handful
				// suffices for a rate estimate and keeps runtime sane.
				n = seqOps / 8
				if n < 4 {
					n = 4
				}
			}
			d, err := runSeqOps(seq, mix, n, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Experiment: "fig10a", Series: "Sequential", X: prof.Name, Value: opsPerSec(n, d), Unit: "ops/s"})
			backend.Close()
		}
		for _, crypto := range []bool{false, true} {
			series := "Parallel"
			if crypto {
				series = "ParallelCrypto"
			}
			p := microParams(cfg, crypto)
			backend := microBackend(p, prof, scale)
			var key *cryptoutil.Key
			if crypto {
				key = cryptoutil.KeyFromSeed([]byte("f10a"))
			}
			oram, err := oramexec.InitORAM(backend, key, p)
			if err != nil {
				return nil, err
			}
			exec := oramexec.New(oram, backend, oramexec.Config{Parallelism: 256})
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			ops, d, err := runExecBatches(exec, backend, mix, batchSize, batches, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Experiment: "fig10a", Series: series, X: prof.Name, Value: opsPerSec(ops, d), Unit: "ops/s"})
			backend.Close()
		}
	}
	return rows, nil
}

// Fig10b reproduces Figure 10b: parallel ORAM throughput vs batch size.
func Fig10b(cfg Config) ([]Row, error) {
	return fig10bc(cfg, false)
}

// Fig10c reproduces Figure 10c: batch latency vs batch size.
func Fig10c(cfg Config) ([]Row, error) {
	return fig10bc(cfg, true)
}

func fig10bc(cfg Config, latency bool) ([]Row, error) {
	sizes := []int{1, 10, 100, 500, 1000, 2000}
	batches := 4
	if cfg.Quick {
		sizes = []int{1, 10, 100, 500}
		batches = 2
	}
	exp := "fig10b"
	if latency {
		exp = "fig10c"
	}
	var rows []Row
	for _, prof := range microProfiles(cfg) {
		p := microParams(cfg, true)
		backend := microBackend(p, prof, cfg.LatencyScale/4)
		oram, err := oramexec.InitORAM(backend, cryptoutil.KeyFromSeed([]byte("f10b")), p)
		if err != nil {
			return nil, err
		}
		exec := oramexec.New(oram, backend, oramexec.Config{Parallelism: 512})
		mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
		for _, size := range sizes {
			if size > p.NumBlocks/2 {
				continue
			}
			// Small batches need more rounds for a stable rate estimate.
			rounds := batches
			if size < 100 {
				rounds = batches * 8
			}
			ops, d, err := runExecBatches(exec, backend, mix, size, rounds, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if latency {
				per := d / time.Duration(rounds)
				rows = append(rows, Row{Experiment: exp, Series: prof.Name, X: fmt.Sprint(size), Value: float64(per.Microseconds()) / 1000, Unit: "ms/batch"})
			} else {
				rows = append(rows, Row{Experiment: exp, Series: prof.Name, X: fmt.Sprint(size), Value: opsPerSec(ops, d), Unit: "ops/s"})
			}
		}
		backend.Close()
	}
	return rows, nil
}

// Fig10d reproduces Figure 10d: delayed visibility (buffered, deduplicated
// epoch write-back) vs immediate write-back, with epochs of eight batches.
func Fig10d(cfg Config) ([]Row, error) {
	var rows []Row
	for _, prof := range microProfiles(cfg) {
		for _, writeThrough := range []bool{false, true} {
			series := "Normal"
			if writeThrough {
				series = "Write Back"
			}
			ops, d, _, err := fig10dRun(cfg, prof, writeThrough)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Experiment: "fig10d", Series: series, X: prof.Name, Value: opsPerSec(ops, d), Unit: "ops/s"})
		}
	}
	return rows, nil
}

// fig10dRun is one Figure 10d cell: read batches over one backend, with
// delayed write-back or write-through. Besides the ops and wall time it
// returns the executor's counters, whose storage round trips are what
// delayed visibility saves.
func fig10dRun(cfg Config, prof storage.Profile, writeThrough bool) (int, time.Duration, oramexec.Stats, error) {
	batchSize, epochs := 200, 2
	if cfg.Quick {
		batchSize = 64
	}
	const batchesPerEpoch = 8
	p := microParams(cfg, true)
	backend := microBackend(p, prof, cfg.LatencyScale/4)
	defer backend.Close()
	oram, err := oramexec.InitORAM(backend, cryptoutil.KeyFromSeed([]byte("f10d")), p)
	if err != nil {
		return 0, 0, oramexec.Stats{}, err
	}
	exec := oramexec.New(oram, backend, oramexec.Config{Parallelism: 256, WriteThrough: writeThrough})
	mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
	ops, d, err := runExecBatches(exec, backend, mix, batchSize, epochs*batchesPerEpoch, batchesPerEpoch, cfg.Seed)
	return ops, d, exec.Stats(), err
}

// Fig10e reproduces Figure 10e: relative throughput increase as the epoch
// grows from 2 to 2^7 batches.
func Fig10e(cfg Config) ([]Row, error) {
	batchSize := 168 // one eviction per batch at A=168 in the paper; scaled
	epochSizes := []int{2, 8, 32, 128}
	if cfg.Quick {
		batchSize = 48
		epochSizes = []int{2, 8, 32}
	}
	var rows []Row
	for _, prof := range microProfiles(cfg) {
		var baselineRate float64
		for i, bpe := range append([]int{1}, epochSizes...) {
			p := microParams(cfg, true)
			backend := microBackend(p, prof, cfg.LatencyScale/8)
			oram, err := oramexec.InitORAM(backend, cryptoutil.KeyFromSeed([]byte("f10e")), p)
			if err != nil {
				return nil, err
			}
			exec := oramexec.New(oram, backend, oramexec.Config{Parallelism: 256})
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			ops, d, err := runExecBatches(exec, backend, mix, batchSize, bpe, bpe, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rate := opsPerSec(ops, d)
			if i == 0 {
				baselineRate = rate
				backend.Close()
				continue
			}
			rows = append(rows, Row{Experiment: "fig10e", Series: prof.Name, X: fmt.Sprint(bpe), Value: rate / baselineRate, Unit: "x vs 1 batch"})
			backend.Close()
		}
	}
	return rows, nil
}

// Fig11a reproduces Figure 11a: throughput vs full-checkpoint frequency
// with durability enabled.
func Fig11a(cfg Config) ([]Row, error) {
	freqs := []int{1, 4, 16, 64}
	profiles := []storage.Profile{storage.ProfileServer, storage.ProfileServerWAN, storage.ProfileDynamo}
	numKeys := 4_000
	txns := 160
	if cfg.Quick {
		freqs = []int{1, 4, 16}
		numKeys = 2_000
		txns = 96
	}
	var rows []Row
	for _, prof := range profiles {
		for _, freq := range freqs {
			rate, err := proxyThroughput(cfg, proxyOpts{
				numKeys:    numKeys,
				profile:    prof,
				scale:      cfg.LatencyScale / 8,
				durability: true,
				ckptEvery:  freq,
				txns:       txns,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Experiment: "fig11a", Series: prof.Name, X: fmt.Sprint(freq), Value: rate, Unit: "ops/s"})
		}
	}
	return rows, nil
}

// Table11b reproduces Table 11b: recovery cost breakdown by database size.
func Table11b(cfg Config) ([]Row, error) {
	sizes := []int{10_000, 100_000}
	if cfg.Quick {
		sizes = []int{2_000, 10_000}
	}
	var rows []Row
	for _, n := range sizes {
		p := ringoram.Params{
			NumBlocks: n, Z: 25, S: 40, A: 25,
			KeySize: 24, ValueSize: 64, Seed: cfg.Seed,
		}
		label := fmt.Sprint(n)
		rows = append(rows, Row{Experiment: "table11b", Series: "Levels", X: label, Value: float64(p.Geometry().Levels), Unit: "levels"})

		// Slowdown: durability on vs off throughput (normal execution).
		base, err := proxyThroughput(cfg, proxyOpts{params: &p, numKeys: n, txns: 40, durability: false})
		if err != nil {
			return nil, err
		}
		durable, err := proxyThroughput(cfg, proxyOpts{params: &p, numKeys: n, txns: 40, durability: true, ckptEvery: 8})
		if err != nil {
			return nil, err
		}
		if base > 0 {
			rows = append(rows, Row{Experiment: "table11b", Series: "Slowdown", X: label, Value: durable / base, Unit: "x"})
		}

		// Recovery time breakdown: build state, crash mid-epoch, recover.
		key := cryptoutil.KeyFromSeed([]byte("t11b"))
		backend := storage.NewMemBackend(p.Geometry().NumBuckets)
		proxy, err := core.New(backend, core.Config{
			Params: p, Key: key,
			ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 32,
			FullCheckpointEvery: 4,
		})
		if err != nil {
			return nil, err
		}
		// A few committed epochs plus one in-flight batch.
		for e := 0; e < 3; e++ {
			tx := proxy.Begin()
			for i := 0; i < 8; i++ {
				if err := tx.Write(fmt.Sprintf("k%d-%d", e, i), []byte("v")); err != nil {
					return nil, err
				}
			}
			ch := tx.CommitAsync()
			if err := proxy.EndEpoch(); err != nil {
				return nil, err
			}
			if err := <-ch; err != nil {
				return nil, err
			}
		}
		tx := proxy.Begin()
		go func() { tx.Read("k0-0") }()
		time.Sleep(2 * time.Millisecond) // let the read enqueue
		if err := proxy.StepReadBatch(); err != nil {
			return nil, err
		}
		// Crash: measure recovery.
		logBytesBefore := logBytes(backend)
		wl, err := wal.New(backend, wal.Config{Key: key})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rec, err := wl.Recover()
		if err != nil {
			return nil, err
		}
		restored, err := ringoram.NewFromState(key, p, rec.Full, rec.Deltas...)
		if err != nil {
			return nil, err
		}
		if err := backend.RollbackTo(rec.CommittedEpoch); err != nil {
			return nil, err
		}
		exec := oramexec.New(restored, backend, oramexec.Config{})
		exec.BeginEpoch(rec.CommittedEpoch + 1)
		pathStart := time.Now()
		for _, batch := range rec.AbortedBatches {
			if err := exec.ReplayBatch(batch); err != nil {
				return nil, err
			}
		}
		if _, err := exec.Flush(); err != nil {
			return nil, err
		}
		pathTime := time.Since(pathStart)
		total := time.Since(start)
		rows = append(rows,
			Row{Experiment: "table11b", Series: "RecTime", X: label, Value: float64(total.Microseconds()) / 1000, Unit: "ms"},
			Row{Experiment: "table11b", Series: "Network", X: label, Value: float64(logBytesBefore) / 1024, Unit: "KiB"},
			Row{Experiment: "table11b", Series: "Pos", X: label, Value: float64(rec.Stats.PosEntries), Unit: "entries"},
			Row{Experiment: "table11b", Series: "Perm", X: label, Value: float64(rec.Stats.PermBuckets), Unit: "buckets"},
			Row{Experiment: "table11b", Series: "Paths", X: label, Value: float64(pathTime.Microseconds()) / 1000, Unit: "ms"},
		)
	}
	return rows, nil
}

func logBytes(b *storage.MemBackend) int {
	recs, err := b.Scan(0)
	if err != nil {
		return 0
	}
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	return total
}
