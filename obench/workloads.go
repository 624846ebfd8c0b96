package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/kvtxn"
	"obladi/internal/smallbank"
	"obladi/internal/tpcc"
	"obladi/internal/workload"
)

// workloadSpec is one named workload: the deployment, the load shape and
// the application. Every value here is stamped into the result.
type workloadSpec struct {
	name    string
	stack   stackConfig
	clients int           // closed loop: concurrent clients (mux sessions on one connection when Wire)
	rate    float64       // open loop: Poisson arrivals per second; 0 selects the closed loop
	limit   time.Duration // goodput latency limit
	newApp  func() app
}

// app is the application a workload runs: its data load, its transaction
// generator and its correctness gate.
type app interface {
	load(db kvtxn.DB) error
	next(db kvtxn.DB, rng *rand.Rand) logicalTxn
	verify(db kvtxn.DB) error
	params() map[string]any
}

var workloads = []workloadSpec{
	{
		// Short write-heavy transactions over the wire: the work falls on
		// the mux protocol, MVTSO conflicts on hot accounts, the write
		// batch, the recovery log and the disk. The storage client has no
		// LogBatcher, so each WAL append is its own synchronous round trip
		// and fsync wave. Δ is large enough that the timer, not the VM
		// disk's fsync tail, sets most of the epoch, which keeps runs
		// comparable on a shared host.
		name: "smallbank-durable",
		stack: stackConfig{
			Shards: 2, NumBlocks: 2048, Z: 8, S: 12, A: 8, KeySize: 24, ValueSize: 64,
			ReadBatches: 4, ReadBatchSize: 48, WriteBatchSize: 32, Delta: 4 * time.Millisecond,
			Durable: true, Wire: true,
		},
		clients: 16,
		limit:   250 * time.Millisecond,
		newApp: func() app {
			return &smallbankApp{cfg: smallbank.Config{Accounts: 80, HotspotPct: 25}}
		},
	},
	{
		// Large read sets over 8 dependent read batches, no wire, storage
		// a memcpy: ORAM planning, AES-GCM, the executor and MVTSO do the
		// work. Δ is small so step work dominates the epoch.
		name: "tpcc-cpu",
		stack: stackConfig{
			Shards: 1, NumBlocks: 16384, Z: 16, S: 24, A: 16, KeySize: 48, ValueSize: 2 * tpcc.MinValueSize,
			ReadBatches: 8, ReadBatchSize: 48, WriteBatchSize: 96, Delta: 500 * time.Microsecond,
		},
		clients: 16,
		limit:   500 * time.Millisecond,
		newApp: func() app {
			return &tpccApp{cfg: tpcc.Config{
				Warehouses: 2, DistrictsPerWH: 4, CustomersPerDist: 20, Items: 100,
				InitialOrders: 3, MaxOrderLines: 4, PaymentByNamePct: 60, Seed: 1,
			}}
		},
	},
	{
		// Open-loop arrivals, each a new mux session: admission, fair slot
		// scheduling, shedding and the per-epoch version cache decide the
		// result. Zipfian keys keep the hot set inside the cache.
		name: "ycsb-open",
		stack: stackConfig{
			Shards: 1, NumBlocks: 12288, Z: 8, S: 12, A: 8, KeySize: 16, ValueSize: 32,
			ReadBatches: 4, ReadBatchSize: 32, WriteBatchSize: 32, Delta: 2 * time.Millisecond,
			Wire: true,
		},
		rate:  700,
		limit: 100 * time.Millisecond,
		newApp: func() app {
			return &ycsbApp{keys: 10000, preload: 512, theta: 0.99, opsPerTxn: 4, writeFrac: 0.1}
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// ---- SmallBank ----

// The account count is bounded by the correctness gate: smallbank.TotalFunds
// reads every row in one transaction, which must be admitted into the
// epoch's remaining read-batch slots and, since a transaction that has not
// asked to commit by the epoch boundary aborts, served before the last
// read batch. 80 accounts are 160 rows, about 80 per shard: two of the R = 4
// batches of bread = 48 slots.

// smallbankApp runs the SmallBank transactions whose effect on the total
// balance is known from outside: Balance, Amalgamate and SendPayment move
// or read money, DepositChecking and TransactSavings add their amount.
// WriteCheck is left out: its overdraft penalty depends on balances the
// client never sees, so the total could not be checked.
type smallbankApp struct {
	cfg      smallbank.Config
	expected atomic.Int64 // total funds implied by every acknowledged commit
}

const smallbankInitial = 10000 // per account row (smallbank.Load)

func (a *smallbankApp) params() map[string]any {
	return map[string]any{"accounts": a.cfg.Accounts, "hotspot_pct": a.cfg.HotspotPct,
		"mix": "balance,deposit-checking,transact-savings,amalgamate,send-payment uniform"}
}

func (a *smallbankApp) load(db kvtxn.DB) error {
	if err := smallbank.Load(db, a.cfg); err != nil {
		return err
	}
	a.expected.Store(int64(a.cfg.Accounts) * 2 * smallbankInitial)
	return nil
}

func (a *smallbankApp) account(rng *rand.Rand) int {
	if rng.IntN(100) < a.cfg.HotspotPct {
		return rng.IntN(max(1, a.cfg.Accounts/25))
	}
	return rng.IntN(a.cfg.Accounts)
}

func (a *smallbankApp) next(db kvtxn.DB, rng *rand.Rand) logicalTxn {
	c := smallbank.NewClient(db, a.cfg, 0)
	x, y := a.account(rng), a.account(rng)
	amount := int64(1 + rng.IntN(100))
	switch rng.IntN(5) {
	case 0:
		return logicalTxn{do: func() error { return c.Balance(x) }}
	case 1:
		return logicalTxn{do: func() error { return c.DepositChecking(x, amount) },
			committed: func() { a.expected.Add(amount) }}
	case 2:
		return logicalTxn{do: func() error { return c.TransactSavings(x, amount) },
			committed: func() { a.expected.Add(amount) }}
	case 3:
		return logicalTxn{do: func() error { return c.Amalgamate(x, y) }}
	default:
		return logicalTxn{do: func() error { return c.SendPayment(x, y, amount/2) }}
	}
}

func (a *smallbankApp) verify(db kvtxn.DB) error {
	got, err := smallbank.TotalFunds(db, a.cfg)
	if err != nil {
		return fmt.Errorf("smallbank: reading total funds: %w", err)
	}
	if want := a.expected.Load(); got != want {
		return fmt.Errorf("smallbank: total funds %d, acknowledged commits imply %d", got, want)
	}
	return nil
}

// ---- TPC-C ----

// tpccApp runs TPC-C's five transactions. A logical transaction is a
// client seed: tpcc.NewClient with the same seed regenerates the same
// transaction parameters, so a retry repeats it exactly.
//
// The mix is 25/40/5/25/5 (new-order, payment, order-status, delivery,
// stock-level), not the specification's 45/43/4/4/4. Under the
// specification's mix every committed transaction adds 0.41 undelivered
// orders on average (a delivery retires one), and tpcc.Verify reads the
// whole undelivered window in one transaction; within seconds that read set
// outgrows one epoch's R·bread read slots and the gate is shed on every
// retry. Equal new-order and delivery shares keep the window a random walk.
type tpccApp struct{ cfg tpcc.Config }

var tpccMix = []struct {
	weight int
	run    func(c *tpcc.Client) error
}{
	{25, (*tpcc.Client).NewOrder},
	{40, (*tpcc.Client).Payment},
	{5, (*tpcc.Client).OrderStatus},
	{25, (*tpcc.Client).Delivery},
	{5, (*tpcc.Client).StockLevel},
}

func (a *tpccApp) params() map[string]any {
	return map[string]any{"warehouses": a.cfg.Warehouses, "districts_per_wh": a.cfg.DistrictsPerWH,
		"customers_per_district": a.cfg.CustomersPerDist, "items": a.cfg.Items,
		"initial_orders": a.cfg.InitialOrders, "max_order_lines": a.cfg.MaxOrderLines,
		"mix": "new-order/payment/order-status/delivery/stock-level 25/40/5/25/5"}
}

func (a *tpccApp) load(db kvtxn.DB) error { return tpcc.Load(db, a.cfg) }

func (a *tpccApp) next(db kvtxn.DB, rng *rand.Rand) logicalTxn {
	seed := rng.Uint64()
	pick := rng.IntN(100)
	for _, m := range tpccMix {
		if pick < m.weight {
			return logicalTxn{do: func() error { return m.run(tpcc.NewClient(db, a.cfg, seed)) }}
		}
		pick -= m.weight
	}
	panic("tpcc mix weights do not sum to 100")
}

func (a *tpccApp) verify(db kvtxn.DB) error { return tpcc.Verify(db, a.cfg) }

// ---- YCSB ----

// ycsbApp runs short transactions over Zipfian keys. Every transaction
// reads its keys in one batch; each op is a write with probability
// writeFrac, and a write increments the value it read. Under
// serializability a key's value is therefore the number of acknowledged
// transactions that wrote it, which the gate checks exactly.
type ycsbApp struct {
	keys      int
	preload   int // hottest keys written before the run
	theta     float64
	opsPerTxn int
	writeFrac float64

	zipf   *workload.Zipfian
	mu     sync.Mutex
	writes map[string]int64 // acknowledged increments per key
}

func (a *ycsbApp) params() map[string]any {
	return map[string]any{"keys": a.keys, "preload": a.preload, "zipf_theta": a.theta, "ops_per_txn": a.opsPerTxn,
		"write_frac": a.writeFrac}
}

func ycsbKey(i int) string { return "y" + strconv.Itoa(i) }

// load builds the key chooser and writes counter 0 under the hottest
// preload keys. The other keys start absent and read as 0: an oblivious
// read of an absent key costs the same ORAM path as any other.
func (a *ycsbApp) load(db kvtxn.DB) error {
	a.zipf = workload.NewZipfian(a.keys, a.theta)
	a.writes = make(map[string]int64)
	const perTxn = 16 // within one epoch's write batch
	for start := 0; start < a.preload; start += perTxn {
		err := kvtxn.RunWithRetries(db, 50, func(tx kvtxn.Txn) error {
			for k := start; k < min(start+perTxn, a.preload); k++ {
				if err := tx.Write(ycsbKey(k), []byte("0")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ycsb: preloading: %w", err)
		}
	}
	return nil
}

func (a *ycsbApp) next(db kvtxn.DB, rng *rand.Rand) logicalTxn {
	keys := make([]string, 0, a.opsPerTxn)
	var writes []int
	seen := make(map[int]bool, a.opsPerTxn)
	for len(keys) < a.opsPerTxn {
		k := a.zipf.Next(rng)
		if seen[k] {
			continue
		}
		seen[k] = true
		if rng.Float64() < a.writeFrac {
			writes = append(writes, len(keys))
		}
		keys = append(keys, ycsbKey(k))
	}
	return logicalTxn{
		do: func() error {
			tx := db.Begin()
			defer tx.Abort()
			res, err := tx.ReadMany(keys)
			if err != nil {
				return err
			}
			for _, i := range writes {
				v, err := counterValue(res[i])
				if err != nil {
					return err
				}
				if err := tx.Write(keys[i], []byte(strconv.FormatInt(v+1, 10))); err != nil {
					return err
				}
			}
			return tx.Commit()
		},
		committed: func() {
			a.mu.Lock()
			for _, i := range writes {
				a.writes[keys[i]]++
			}
			a.mu.Unlock()
		},
	}
}

func counterValue(v kvtxn.Value) (int64, error) {
	if !v.Found {
		return 0, nil
	}
	n, err := strconv.ParseInt(string(v.Value), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ycsb: key %q holds %q, not a counter", v.Key, v.Value)
	}
	return n, nil
}

// verify reads back a sample of written keys: each must hold the value of
// its last acknowledged increment.
func (a *ycsbApp) verify(db kvtxn.DB) error {
	a.mu.Lock()
	keys := make([]string, 0, len(a.writes))
	for k := range a.writes {
		keys = append(keys, k)
	}
	want := make(map[string]int64, len(a.writes))
	for k, n := range a.writes {
		want[k] = n
	}
	a.mu.Unlock()
	if len(keys) == 0 {
		return fmt.Errorf("ycsb: no write was acknowledged")
	}
	sort.Strings(keys)
	const sample = 256
	if len(keys) > sample {
		step := len(keys) / sample
		picked := keys[:0]
		for i := 0; i < len(keys) && len(picked) < sample; i += step {
			picked = append(picked, keys[i])
		}
		keys = picked
	}
	const chunk = 24 // within one epoch's read slots
	for start := 0; start < len(keys); start += chunk {
		part := keys[start:min(start+chunk, len(keys))]
		var res []kvtxn.Value
		err := kvtxn.RunWithRetries(db, 100, func(tx kvtxn.Txn) error {
			var err error
			res, err = tx.ReadMany(part)
			return err
		})
		if err != nil {
			return fmt.Errorf("ycsb: reading back: %w", err)
		}
		for _, r := range res {
			got, err := counterValue(r)
			if err != nil {
				return err
			}
			if got != want[r.Key] {
				return fmt.Errorf("ycsb: key %q reads %d after %d acknowledged increments", r.Key, got, want[r.Key])
			}
		}
	}
	return nil
}
