package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"obladi/internal/storage"
)

// quickCfg is an extra-small configuration so harness tests stay fast.
func quickCfg() Config {
	return Config{Quick: true, LatencyScale: 0.5, Seed: 7}
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 19 {
		t.Fatalf("expected 19 experiments (every table and figure, plus shards, pipeline, vector, client, disk, recovery, hotpath, failover and scale), got %d: %v", len(names), names)
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Fatalf("experiment %q has no description", n)
		}
	}
	if _, err := Run("nonsense", quickCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPrintFormatsRows(t *testing.T) {
	rows := []Row{
		{Experiment: "figX", Series: "s", X: "1", Value: 12.5, Unit: "ops/s"},
		{Experiment: "figX", Series: "s", X: "2", Value: 13.5, Unit: "ops/s"},
	}
	var buf bytes.Buffer
	if err := Print(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "12.50") {
		t.Fatalf("print output:\n%s", out)
	}
}

func TestFig10aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(series, x string) float64 {
		for _, r := range rows {
			if r.Series == series && r.X == x {
				return r.Value
			}
		}
		t.Fatalf("missing row %s/%s", series, x)
		return 0
	}
	// Shape assertions from the paper: parallelism hurts on the dummy
	// backend (CPU bound) but wins by a large factor on the WAN backend.
	if seq, par := get("Sequential", "server WAN"), get("Parallel", "server WAN"); par < 3*seq {
		t.Errorf("parallel (%.0f) should dominate sequential (%.0f) on WAN", par, seq)
	}
	if seq, par := get("Sequential", "server"), get("Parallel", "server"); par < seq {
		t.Errorf("parallel (%.0f) should beat sequential (%.0f) on server", par, seq)
	}
	// Crypto costs something on the CPU-bound dummy backend.
	if plain, crypto := get("Parallel", "dummy"), get("ParallelCrypto", "dummy"); crypto > plain*1.5 {
		t.Errorf("crypto (%.0f) unexpectedly faster than plain (%.0f) on dummy", crypto, plain)
	}
}

func TestFig10bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Throughput on the latency-bound server backend must grow with batch
	// size (inter-request parallelism).
	var first, last float64
	for _, r := range rows {
		if r.Series == "server" {
			if first == 0 {
				first = r.Value
			}
			last = r.Value
		}
	}
	if first == 0 || last <= first {
		t.Errorf("server throughput did not grow with batch size: %v -> %v", first, last)
	}
}

func TestFig10dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10d(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(microProfiles(quickCfg())) {
		t.Fatalf("fig10d: %d rows", len(rows))
	}
	// Delayed visibility ("Normal") beats write-through ("Write Back") by
	// saving storage round trips: reads of buckets written this epoch are
	// served from the epoch buffer, and each bucket is written back once
	// per epoch in one vectored call instead of once per eviction. Assert
	// those counts, which are deterministic; the quick run's wall-clock
	// rates are too short to order reliably on a loaded host.
	for _, prof := range []storage.Profile{storage.ProfileServer, storage.ProfileServerWAN} {
		_, _, normal, err := fig10dRun(quickCfg(), prof, false)
		if err != nil {
			t.Fatal(err)
		}
		_, _, through, err := fig10dRun(quickCfg(), prof, true)
		if err != nil {
			t.Fatal(err)
		}
		if normal.RemoteReads >= through.RemoteReads || normal.LocalReads == 0 {
			t.Errorf("%s: delayed visibility read %d slots from storage (%d locally), write-through %d",
				prof.Name, normal.RemoteReads, normal.LocalReads, through.RemoteReads)
		}
		if normal.BucketWrites >= through.BucketWrites {
			t.Errorf("%s: delayed visibility wrote %d buckets, write-through %d", prof.Name, normal.BucketWrites, through.BucketWrites)
		}
		if n, w := normal.ReadCalls+normal.WriteCalls, through.ReadCalls+through.WriteCalls; n >= w {
			t.Errorf("%s: delayed visibility made %d storage calls, write-through %d", prof.Name, n, w)
		}
	}
}

func TestTable11bProducesAllRows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table11b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Levels": false, "Slowdown": false, "RecTime": false, "Network": false, "Pos": false, "Perm": false, "Paths": false}
	for _, r := range rows {
		if _, ok := want[r.Series]; ok {
			want[r.Series] = true
		}
	}
	for series, seen := range want {
		if !seen {
			t.Errorf("table11b missing series %q", series)
		}
	}
	// Levels must grow with database size.
	var levels []float64
	for _, r := range rows {
		if r.Series == "Levels" {
			levels = append(levels, r.Value)
		}
	}
	if len(levels) < 2 || levels[1] <= levels[0] {
		t.Errorf("levels do not grow with size: %v", levels)
	}
}

func TestAblationEpochCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := AblationEpochCommit(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestAblationReadCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := AblationReadCache(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestFig11aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig11a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rarer full checkpoints must not reduce throughput. Per-backend runs
	// are short, so assert on the cross-backend average of first vs last
	// frequency points.
	bySeries := map[string][]float64{}
	for _, r := range rows {
		bySeries[r.Series] = append(bySeries[r.Series], r.Value)
	}
	var first, last float64
	for series, vals := range bySeries {
		if len(vals) < 2 {
			t.Fatalf("%s: %d points", series, len(vals))
		}
		first += vals[0]
		last += vals[len(vals)-1]
	}
	if last < first*0.85 {
		t.Errorf("throughput fell as full checkpoints got rarer: %.0f -> %.0f", first, last)
	}
}

func TestPipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Pipeline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]map[string]float64{}
	for _, r := range rows {
		if vals[r.X] == nil {
			vals[r.X] = map[string]float64{}
		}
		vals[r.X][r.Series] = r.Value
	}
	// Overlapping epoch e's write-back + durability with epoch e+1's read
	// batches must beat paying the full boundary inline on every
	// latency-injected backend.
	for backend, v := range vals {
		if v["Pipelined"] <= v["Synchronous"] {
			t.Errorf("%s: pipelined boundary (%.0f txns/s) did not beat synchronous (%.0f txns/s)",
				backend, v["Pipelined"], v["Synchronous"])
		}
	}
}

func TestVectorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Vector(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]map[string]float64{}
	for _, r := range rows {
		if vals[r.X] == nil {
			vals[r.X] = map[string]float64{}
		}
		vals[r.X][r.Series] = r.Value
		if r.P50ms <= 0 || r.P99ms < r.P50ms {
			t.Errorf("%s/%s: bad latency percentiles p50=%.2f p99=%.2f", r.Series, r.X, r.P50ms, r.P99ms)
		}
	}
	// Packing a stage's reads into one frame must beat call-per-slot
	// wherever round trips dominate; the WAN profile is the headline case.
	for _, backend := range []string{"server WAN", "dynamo"} {
		if vals[backend]["Vectored"] <= vals[backend]["Scalar"] {
			t.Errorf("%s: vectored I/O (%.0f txns/s) did not beat scalar (%.0f txns/s)",
				backend, vals[backend]["Vectored"], vals[backend]["Scalar"])
		}
	}
}

func TestDiskShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Disk(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// mem/disk x scalar/vectored, the four 2-shard group-commit rows
	// (Mem, Mem+fsync, Disk, Disk+logheap at Vectored/group), and the
	// logheap fsync-wave count.
	if len(rows) != 9 {
		t.Fatalf("expected 4 single-shard + 4 group rows + waves row: %+v", rows)
	}
	vals := map[string]map[string]float64{}
	for _, r := range rows {
		if vals[r.Series] == nil {
			vals[r.Series] = map[string]float64{}
		}
		vals[r.Series][r.X] = r.Value
		if r.Value <= 0 {
			t.Errorf("%s/%s: nonpositive throughput %f", r.Series, r.X, r.Value)
		}
		if r.X == "fsync-waves" {
			continue // a counter, not a latency measurement
		}
		if r.P50ms <= 0 || r.P99ms < r.P50ms {
			t.Errorf("%s/%s: bad latency percentiles p50=%.2f p99=%.2f", r.Series, r.X, r.P50ms, r.P99ms)
		}
	}
	for _, want := range []struct{ series, x string }{
		{"Mem", "Scalar"}, {"Mem", "Vectored"}, {"Disk", "Scalar"}, {"Disk", "Vectored"},
		{"Mem", "Vectored/group"}, {"Mem+fsync", "Vectored/group"}, {"Disk", "Vectored/group"},
		{"Disk+logheap", "Vectored/group"}, {"Disk+logheap", "fsync-waves"},
	} {
		if _, ok := vals[want.series][want.x]; !ok {
			t.Errorf("missing row %s/%s", want.series, want.x)
		}
	}
	// Durability costs real fsyncs, but the disk backend must stay within
	// sight of memory on a local filesystem, not collapse.
	if vals["Disk"]["Vectored"] < vals["Mem"]["Vectored"]/50 {
		t.Errorf("disk vectored (%.0f txns/s) collapsed vs mem (%.0f txns/s)",
			vals["Disk"]["Vectored"], vals["Mem"]["Vectored"])
	}
	if vals["Disk"]["Vectored/group"] < vals["Mem"]["Vectored/group"]/50 {
		t.Errorf("disk group (%.0f txns/s) collapsed vs mem group (%.0f txns/s)",
			vals["Disk"]["Vectored/group"], vals["Mem"]["Vectored/group"])
	}
}

func TestRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Recovery(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 1/2/4-worker replay rows for both backends: %+v", rows)
	}
	for i, workers := range []string{"1-workers", "2-workers", "4-workers",
		"1-workers", "2-workers", "4-workers"} {
		r := rows[i]
		series := "Replay"
		if i >= 3 {
			series = "Replay+logheap"
		}
		if r.X != workers || r.Series != series {
			t.Fatalf("row %d = %s/%s, want %s/%s", i, r.Series, r.X, series, workers)
		}
		if r.Value <= 0 {
			t.Errorf("%s: nonpositive recovery time %f", r.X, r.Value)
		}
		if r.P50ms <= 0 || r.P99ms < r.P50ms {
			t.Errorf("%s: bad latency percentiles p50=%.2f p99=%.2f", r.X, r.P50ms, r.P99ms)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	path := t.TempDir() + "/BENCH_x.json"
	rows := []Row{{Experiment: "x", Series: "s", X: "p", Value: 10, Unit: "ops/s", Profile: "p", Shards: 2, P50ms: 1.5, P99ms: 2.5}}
	if err := WriteJSON(path, "x", rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Rows       []Row  `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if doc.Experiment != "x" || len(doc.Rows) != 1 || doc.Rows[0] != rows[0] {
		t.Fatalf("round trip mismatch: %+v", doc)
	}
}

func TestShardScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := ShardScale(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for _, r := range rows {
		if r.Series == "Total" {
			total[r.X] = r.Value
		}
	}
	if len(total) != 3 {
		t.Fatalf("expected totals for 1/2/4 shards: %+v", rows)
	}
	// Four shards quadruple the aggregate batch capacity against independent
	// capped-concurrency backends; demand a conservative 1.5x.
	if total["4"] < total["1"]*1.5 {
		t.Errorf("sharding did not scale: 1 shard %.0f ops/s, 4 shards %.0f ops/s", total["1"], total["4"])
	}
	if total["2"] < total["1"] {
		t.Errorf("2 shards (%.0f) slower than 1 (%.0f)", total["2"], total["1"])
	}
}

func TestFig10eShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10e(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// On the WAN backend, larger epochs must help (more local serving and
	// write dedup).
	var wan []float64
	for _, r := range rows {
		if r.Series == "server WAN" {
			wan = append(wan, r.Value)
		}
	}
	if len(wan) < 2 {
		t.Fatalf("missing WAN series: %+v", rows)
	}
	if wan[len(wan)-1] <= wan[0]*0.9 {
		t.Errorf("WAN gain did not grow with epoch size: %v", wan)
	}
}
