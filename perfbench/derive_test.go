package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"objalloc/internal/cost"
	"objalloc/internal/multiobject"
	"objalloc/internal/obs"
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

func TestPercentileNearestRank(t *testing.T) {
	var vals []float64
	for v := 100; v >= 1; v-- { // unsorted on purpose
		vals = append(vals, float64(v))
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		got, n := percentile(vals, tc.p)
		if got != tc.want || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v over %d samples, want %v over 100", tc.p, got, n, tc.want)
		}
	}
	if vals[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}

	// Four batch round trips: the p50 is the 2nd smallest (rank 2 of
	// 4), the p99 the largest; the sample count is the batch count.
	rtts := micros([]time.Duration{40 * time.Microsecond, 10 * time.Microsecond, 30 * time.Microsecond, 20 * time.Microsecond})
	if got, n := percentile(rtts, 0.5); got != 20 || n != 4 {
		t.Errorf("batch p50 = %v over %d, want 20 over 4", got, n)
	}
	if got, _ := percentile(rtts, 0.99); got != 40 {
		t.Errorf("batch p99 = %v, want 40", got)
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of nothing = %v over %d", got, n)
	}
	if got := summarize(vals); got != (latencies{P50: 50, P90: 90, P99: 99, Mean: 50.5, N: 100}) {
		t.Errorf("summarize(1..100) = %+v", got)
	}
	if got := summarize(nil); got != (latencies{}) {
		t.Errorf("summarize of nothing = %+v", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {1024, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %t, want %t", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestErrorRateCountsAttempts(t *testing.T) {
	// A batch of 32 of which 8 were refused and resubmitted: 40
	// attempts, 8 failed — the rate is over attempts, not successes.
	if got := errorRate(40, 8); got != 0.2 {
		t.Errorf("errorRate(40, 8) = %v, want 0.2", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("errorRate(0, 0) = %v, want 0", got)
	}
}

// The fixture is a real drained journal: 10 requests sent one at a time
// (so 10 non-empty service rounds, 5 per shard) to a 2-shard DA server
// with CheckpointEvery 4, which wrote one checkpoint per shard.
const fixtureDir = "testdata/journal"

func TestJournalFixture(t *testing.T) {
	u, err := readJournalUsage(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	if u != (journalUsage{Bytes: 536 + 539, Records: 10, Ckpts: 2}) {
		t.Fatalf("readJournalUsage = %+v", u)
	}
	snap := obs.Snapshot{Histograms: []obs.HistogramPoint{
		{Name: "server.request_latency_us", Count: 99},
		{Name: "shard0.batch_size", Count: 5, Sum: 5},
		{Name: "shard0.queue_depth", Count: 7, Sum: 3},
		{Name: "shard1.batch_size", Count: 5, Sum: 5},
	}}
	if got := fsyncs(snap, u, true); got != 12 {
		t.Errorf("fsyncs = %d, want 10 rounds + 2 checkpoints", got)
	}
	if got := fsyncs(snap, u, false); got != 0 {
		t.Errorf("fsyncs without a journal = %d", got)
	}
	const completed = 10
	if got := ratio(completed, float64(fsyncs(snap, u, true))); math.Abs(got-10.0/12) > 1e-12 {
		t.Errorf("journal.reqs_per_fsync = %v, want 10/12", got)
	}
	if got := ratio(float64(u.Bytes), completed); got != 107.5 {
		t.Errorf("disk_bytes_per_req = %v, want 107.5", got)
	}
	if n, sum := shardHist(snap, "queue_depth"); n != 7 || sum != 3 {
		t.Errorf("shardHist(queue_depth) = %d, %d", n, sum)
	}

	// The fixture replays to the accounting its server drained with.
	st, err := server.ReplayDir(server.Config{Shards: 2, N: 8, T: 3, Model: cost.SC(0.25, 1), Journal: fixtureDir})
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete != completed || st.Cost != 36.25 {
		t.Errorf("fixture replays to %d requests cost %v, want 10 and 36.25", st.Complete, st.Cost)
	}
	if u, err := readJournalUsage("testdata/missing"); err != nil || u != (journalUsage{}) {
		t.Errorf("missing journal = %+v, %v", u, err)
	}
}

func reqSpan(trace string, start, dur int64) tracing.Span {
	return tracing.Span{Trace: trace, Span: trace + "-" + time.Duration(start).String(), Name: tracing.NameRequest, StartNS: start, DurNS: dur}
}

func TestWithinBatchGaps(t *testing.T) {
	spans := []tracing.Span{
		// Batch a, out of order: spans [0,10) [15,25) [40,45) µs → gaps
		// 5 and 15; the client saw 60 µs, 15 of them outside the
		// spans' extent.
		reqSpan("a", 40000, 5000), reqSpan("a", 0, 10000), reqSpan("a", 15000, 10000),
		{Trace: "a", Span: "a-svc", Name: tracing.NameService, StartNS: 1, DurNS: 1},
		// Batch b lost one request span to sampling: skipped.
		reqSpan("b", 0, 1000), reqSpan("b", 90000, 1000),
		// Batch c has no client span: its gaps (10 and 5) count.
		reqSpan("c", 0, 10000), reqSpan("c", 20000, 5000), reqSpan("c", 30000, 5000),
	}
	groups := batchSpans(spans)
	if len(groups) != 3 || len(groups["a"]) != 3 {
		t.Fatalf("batchSpans = %v", groups)
	}
	got := withinBatch(groups, 3, map[string]time.Duration{"a": 60 * time.Microsecond, "b": time.Millisecond})
	want := batchTiming{Batches: 2, Gaps: 4, GapNS: 35000, Selves: 1, SelfNS: 15000}
	if got != want {
		t.Errorf("withinBatch = %+v, want %+v", got, want)
	}
	if got.gapUS() != (5+15+10+5)/4.0 || got.selfUS() != 15 {
		t.Errorf("gapUS %v selfUS %v, want 8.75 and 15", got.gapUS(), got.selfUS())
	}
	sum := got.add(got)
	if sum.Batches != 4 || sum.gapUS() != got.gapUS() || sum.selfUS() != got.selfUS() {
		t.Errorf("adding two equal timings = %+v", sum)
	}
	if none := withinBatch(nil, 3, nil); none.gapUS() != 0 || none.selfUS() != 0 {
		t.Errorf("withinBatch of nothing = %+v", none)
	}
}

func TestPeakRSS(t *testing.T) {
	kb, err := peakRSSKB("/proc/self/status")
	if err != nil || kb <= 0 {
		t.Fatalf("peakRSSKB(self) = %d, %v", kb, err)
	}
	if _, err := peakRSSKB("testdata/journal/shard-0.jsonl"); err == nil {
		t.Errorf("a file without a VmHWM line parsed")
	}
}

// TestBenchmarkJSON keeps the program and the benchmark's declaration at
// the repository root in step: the same workloads, and every metric with
// the declared unit.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, declared %v", names, declared)
	}
	r := &result{bare: []bareRun{{}}}
	for _, tc := range []struct {
		what string
		vals []value
		decl []metric
	}{{"end_to_end", r.endToEnd(workloads[0]), decl.EndToEnd}, {"per_layer", r.perLayer(workloads[0]), decl.PerLayer}} {
		var got []metric
		for _, v := range tc.vals {
			got = append(got, metric{v.name, v.unit})
		}
		if !slices.Equal(got, tc.decl) {
			t.Errorf("%s metrics %v, declared %v", tc.what, got, tc.decl)
		}
	}
}

func TestStealShare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, line string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(line+"\ncpu0 1 2 3 4 5 6 7 8 9 10\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, err := readCPUTicks(write("a", "cpu  100 0 50 800 10 0 5 35 0 0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readCPUTicks(write("b", "cpu  160 0 70 900 10 0 5 55 0 0"))
	if err != nil {
		t.Fatal(err)
	}
	if a != (cpuTicks{steal: 35, total: 1000}) {
		t.Errorf("readCPUTicks = %+v", a)
	}
	if got := stealShare(a, b); got != 0.1 {
		t.Errorf("stealShare = %v, want 20 of 200 ticks", got)
	}
	if _, err := readCPUTicks(write("c", "intr 1 2 3")); err == nil {
		t.Errorf("a file without a cpu line parsed")
	}
	if _, err := readCPUTicks("/proc/stat"); err != nil {
		t.Errorf("/proc/stat: %v", err)
	}
}

// TestAdaptivePhasesDriveSwitches checks that the inproc-adaptive
// stream does what its workload says: replayed through the bare engine,
// the objects end each read-heavy phase under SA and each write-heavy
// phase under DA, and every flip is followed by protocol switches.
func TestAdaptivePhasesDriveSwitches(t *testing.T) {
	w, err := findWorkload("inproc-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.config()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	db, err := multiobject.Open(multiobject.Config{Factory: cfg.Factory, T: cfg.T, Placement: cfg.Placement, Model: cfg.Model})
	if err != nil {
		t.Fatal(err)
	}
	phaseLen := adaptivePhase(w.objects)
	phases := w.requests / clients / phaseLen
	if phases < 3 {
		t.Fatalf("an iteration holds %d phases per client, want at least 3", phases)
	}
	switches := make([]int, phases)
	tailSA := make([]int, phases) // requests served under SA in the last tenth of each phase
	names := w.names()
	for c, s := range w.streams(1, w.requests) {
		for i, q := range s {
			d, err := db.ApplyDetail(names[q.obj], q.model())
			if err != nil {
				t.Fatalf("client %d request %d: %v", c, i, err)
			}
			p := i / phaseLen
			switches[p] += len(d.Transitions)
			if i%phaseLen >= phaseLen*9/10 && d.Protocol == "SA" {
				tailSA[p]++
			}
		}
	}
	for p := 1; p < phases; p++ {
		share := float64(tailSA[p]) / float64(clients*phaseLen/10)
		readHeavy := p%2 == 0
		if (readHeavy && share < 0.9) || (!readHeavy && share > 0.3) {
			t.Errorf("phase %d (read-heavy %t) ends with %.2f of its requests under SA", p, readHeavy, share)
		}
		if switches[p] < w.objects/4 {
			t.Errorf("phase %d made %d protocol switches over %d objects", p, switches[p], w.objects)
		}
	}
	t.Logf("switches per phase %v; SA requests in the last tenth of each phase %v of %d", switches, tailSA, clients*phaseLen/10)
}
