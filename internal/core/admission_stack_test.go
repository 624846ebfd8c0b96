package core_test

import (
	"testing"
	"time"

	"obladi"
	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
	"obladi/internal/workload"
)

// TestAdmissionShedRateBelowKnee pins the overload plane's promise below
// saturation on the full stack — Obladi behind the mux wire protocol, open-
// loop Poisson sessions of one read or one write each. At about half the
// epoch's read-slot budget almost nothing may be shed: a read arriving after
// the epoch's last read batch waits for the next epoch instead of being
// refused, so only a burst that oversubscribes two epochs in a row sheds.
func TestAdmissionShedRateBelowKnee(t *testing.T) {
	const (
		readBatches   = 4
		readBatchSize = 4
		interval      = 5 * time.Millisecond
	)
	db, err := obladi.Open(obladi.Options{
		MaxKeys:           1024,
		MaxValueSize:      32,
		ReadBatches:       readBatches,
		ReadBatchSize:     readBatchSize,
		WriteBatchSize:    16,
		BatchInterval:     interval,
		DisableDurability: true,
		KeySeed:           []byte("admission-knee"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := clientproto.NewServer(clientproto.WrapDB(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// An epoch is R read-batch slots plus the boundary slot, each Δ apart,
	// so the schedule serves at most R·bread reads per (R+1)·Δ. Offer half.
	slotsPerSec := float64(readBatches*readBatchSize) / ((readBatches + 1) * interval).Seconds()
	const sessions = 32
	pace := time.Duration(float64(sessions) / (slotsPerSec / 2) * float64(time.Second))
	before := db.Stats()
	res, err := workload.RunScale(workload.ScaleConfig{
		DBs:       []kvtxn.DB{clientproto.MuxDB{C: mc}},
		Sessions:  sessions,
		Duration:  1500 * time.Millisecond,
		Mix:       workload.NewMix(workload.NewUniform(512), 0.9, "knee-"),
		Pace:      pace,
		OpsPerTxn: 1,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if res.OtherErrs > 0 {
		t.Fatalf("%d unexpected errors, first: %v", res.OtherErrs, res.FirstOtherErr)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	epochs := after.Epochs - before.Epochs
	t.Logf("offered %.0f txn/s against %.0f read slots/s: %d attempted, %d committed, %d shed, %d deferred over %d epochs",
		res.OfferedRate(), slotsPerSec, res.Attempted, res.Committed, res.Shed, after.DeferredTxns-before.DeferredTxns, epochs)
	if rate := res.ShedRate(); rate >= 0.01 {
		t.Fatalf("shed rate %.3f at half the slot budget, want < 0.01", rate)
	}
}
