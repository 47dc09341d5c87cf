package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// value is one reported metric. moves names the end-to-end metric and
// workload a per-layer metric is predicted to move; note says what the
// value rests on.
type value struct {
	name, unit string
	v          float64
	moves      string
	note       string
	missing    bool // needs iterations of a kind this run did not make
}

const (
	movesEngineTime = "throughput_rps on inproc-adaptive"
	movesCounts     = "cost_per_req on every workload"
	movesShard      = "throughput_rps on inproc-adaptive, wire-volatile"
	movesHTTP       = "req_p50_us, throughput_rps on wire-volatile"
	movesJournal    = "journal.durable_rps, journal.durable_p50_us"
	movesDurable    = "none gated: the durable twin end to end"
	movesNone       = "none: the shared disk's own latency"
	movesHost       = "none: the host's own contention"
	movesRecovery   = "setup_s of a restarting durable daemon"
	movesTrace      = "req_p50_us on every workload"
	movesOverhead   = "none: the cost of tracing itself"
	movesErrors     = "throughput_rps on every workload"
	movesTail       = "none gated: the tail beyond req_p90_us"
)

// byKind groups a run's iterations by kind.
func (r *result) byKind() map[kind][]*iteration {
	out := make(map[kind][]*iteration)
	for _, it := range r.its {
		out[it.kind] = append(out[it.kind], it)
	}
	return out
}

func throughput(its []*iteration) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, float64(it.stats.Complete)/it.load.Seconds())
	}
	return out
}

// latency is the median over iterations of each iteration's request
// p50, p90, p99 and mean, and the samples each iteration's percentiles
// rest on.
func latency(its []*iteration) (med latencies) {
	var p50s, p90s, p99s, means []float64
	for _, it := range its {
		p50s = append(p50s, it.lat.P50)
		p90s = append(p90s, it.lat.P90)
		p99s = append(p99s, it.lat.P99)
		means = append(means, it.lat.Mean)
		med.N = it.lat.N
	}
	med.P50, med.P90, med.P99, med.Mean = median(p50s), median(p90s), median(p99s), median(means)
	return med
}

// latencyNote says what a latency percentile rests on: on the wire
// batch round trips, in process single Server.Do calls.
func latencyNote(w workload, iterations, samples int, p float64) string {
	s := fmt.Sprintf("median of %d iterations, each over %d Server.Do calls", iterations, samples)
	if w.wire {
		s = fmt.Sprintf("median of %d iterations, each over %d batches of %d", iterations, samples, batchSize)
	}
	if !tailSupported(samples, p) {
		s += fmt.Sprintf(" (fewer than 10 beyond p%g)", p*100)
	}
	return s
}

func (r *result) endToEnd(w workload) []value {
	plain := r.byKind()[kind{}]
	var setup, mem []float64
	for _, it := range plain {
		for _, d := range it.setup {
			setup = append(setup, d.Seconds())
		}
		mem = append(mem, float64(it.rssKB)/1024)
	}
	lat := latency(plain)
	its := fmt.Sprintf("median of %d iterations", len(plain))
	costPerReq := 0.0
	if len(plain) > 0 {
		costPerReq = ratio(plain[0].stats.Cost, float64(plain[0].stats.Complete))
	}
	return []value{
		{name: "throughput_rps", unit: "1/s", v: median(throughput(plain)), note: its},
		{name: "req_p50_us", unit: "us", v: lat.P50, note: latencyNote(w, len(plain), lat.N, 0.50)},
		{name: "req_p90_us", unit: "us", v: lat.P90, note: latencyNote(w, len(plain), lat.N, 0.90)},
		{name: "cost_per_req", unit: "cost/req", v: costPerReq, note: "drained stats, exact at a fixed seed"},
		{name: "mem_peak_mb", unit: "MB", v: median(mem), note: its + ", serving process"},
		{name: "setup_s", unit: "s", v: median(setup), note: fmt.Sprintf("median of %d set-ups", len(setup))},
	}
}

func (r *result) perLayer(w workload) []value {
	groups := r.byKind()
	plain, plainT := groups[kind{}], groups[kind{traced: true}]
	durable, durableT := groups[kind{durable: true}], groups[kind{traced: true, durable: true}]
	n := float64(w.requests)
	var applyNS, allocs []float64
	for _, b := range r.bare {
		applyNS = append(applyNS, float64(b.elapsed.Nanoseconds())/n)
		allocs = append(allocs, float64(b.mallocs)/n)
	}
	apply := median(applyNS)

	// The shard and HTTP layers under the plain workload, untraced.
	var completed, rounds, rejected, accepted float64
	var batchN, batchSum, depthN, depthSum int64
	var rtts []time.Duration
	var body, bodyReqs float64
	for _, it := range plain {
		completed += float64(it.stats.Complete)
		accepted += float64(it.stats.Accepted)
		rejected += float64(it.stats.Rejected)
		for _, ps := range it.stats.PerShard {
			rounds += float64(ps.Rounds)
		}
		c, s := shardHist(it.ops, "batch_size")
		batchN, batchSum = batchN+c, batchSum+s
		c, s = shardHist(it.ops, "queue_depth")
		depthN, depthSum = depthN+c, depthSum+s
		rtts = append(rtts, it.rtts...)
	}
	lat := latency(plain)
	doNS := lat.Mean * 1e3
	for _, it := range append(plain, plainT...) {
		body += float64(it.bodyBytes)
		bodyReqs += float64(it.stats.Complete)
	}
	rtt50, rttN := percentile(micros(rtts), 0.50)
	rtt99, _ := percentile(micros(rtts), 0.99)

	// The journal under the durable twin, untraced.
	var durCompleted, fsyncN, jbytes float64
	var ckpts, replays []float64
	for _, it := range durable {
		durCompleted += float64(it.stats.Complete)
		fsyncN += float64(fsyncs(it.ops, it.journal, true))
		jbytes += float64(it.journal.Bytes)
		ckpts = append(ckpts, float64(it.journal.Ckpts))
	}
	durLat := latency(durable)

	var attempts, failed int
	var probe []time.Duration
	var steals []float64
	for _, it := range r.its {
		attempts += it.attempts
		failed += it.failed
		probe = append(probe, it.probe...)
		steals = append(steals, it.steal)
		if it.replayed != nil {
			replays = append(replays, float64(it.replay)/float64(time.Millisecond))
		}
	}
	fs50, fsN := percentile(micros(probe), 0.50)
	fs99, _ := percentile(micros(probe), 0.99)

	// Traced iterations: the server's request spans, and the same spans
	// grouped under each batch's trace ID beside the benchmark's own
	// batch span.
	var sampled, adm, que, svc, reqNS float64
	var plainTiming, durTiming batchTiming
	for _, it := range plainT {
		sampled += float64(it.trace.requests)
		adm += float64(it.trace.admissionNS)
		que += float64(it.trace.queueNS)
		svc += float64(it.trace.serviceNS)
		reqNS += float64(it.trace.totalNS)
		plainTiming = plainTiming.add(it.trace.timing)
	}
	for _, it := range durableT {
		durTiming = durTiming.add(it.trace.timing)
	}
	if w.wire {
		// The daemon's Server.Do is not visible to the client: its
		// request span stands in for the client-timed call.
		doNS = ratio(reqNS, sampled)
	}

	rpsPlain, rpsTraced := median(throughput(plain)), median(throughput(plainT))
	noTrace, noTwin := len(plainT) == 0, len(durable) == 0
	tail := func(n int) string {
		s := fmt.Sprintf("%d samples", n)
		if !tailSupported(n, 0.99) {
			s += " (fewer than 10 beyond p99)"
		}
		return s
	}
	doNote, httpNote := "mean client-timed Server.Do minus engine.apply_ns", "in-process batch of Server.Do calls: no HTTP; "
	if w.wire {
		doNote, httpNote = "daemon request span minus engine.apply_ns", ""
	}
	twinNote := fmt.Sprintf("durable twin, %d iterations of %d requests", len(durable), twinRequests)
	counts := perRequestCounts(plain)
	return []value{
		{name: "engine.apply_ns", unit: "ns", v: apply, moves: movesEngineTime, note: fmt.Sprintf("median of %d bare replays", len(r.bare))},
		{name: "engine.allocs_per_req", unit: "allocs/req", v: median(allocs), moves: movesEngineTime},
		{name: "engine.ctl_per_req", unit: "msgs/req", v: counts[0], moves: movesCounts},
		{name: "engine.data_per_req", unit: "msgs/req", v: counts[1], moves: movesCounts},
		{name: "engine.io_per_req", unit: "io/req", v: counts[2], moves: movesCounts},
		{name: "engine.switches_per_kreq", unit: "switches/kreq", v: ratio(float64(r.bare[0].switches)*1000, n), moves: movesCounts},
		{name: "shard.reqs_per_round", unit: "req/round", v: ratio(completed, rounds), moves: movesShard},
		{name: "shard.batch_size_mean", unit: "req", v: ratio(float64(batchSum), float64(batchN)), moves: movesShard},
		{name: "shard.queue_depth_mean", unit: "tasks", v: ratio(float64(depthSum), float64(depthN)), moves: movesShard},
		{name: "shard.rejected_frac", unit: "ratio", v: ratio(rejected, accepted+rejected), moves: movesShard},
		{name: "shard.do_ns", unit: "ns", v: doNS - apply, moves: movesShard, note: doNote, missing: w.wire && noTrace},
		{name: "req_p99_us", unit: "us", v: lat.P99, moves: movesTail, note: latencyNote(w, len(plain), lat.N, 0.99)},
		{name: "http.batch_rtt_us_p50", unit: "us", v: rtt50, moves: movesHTTP, note: httpNote + tail(rttN)},
		{name: "http.batch_rtt_us_p99", unit: "us", v: rtt99, moves: movesHTTP, note: httpNote + tail(rttN)},
		{name: "http.body_bytes_per_req", unit: "B/req", v: ratio(body, bodyReqs), moves: movesHTTP, missing: w.wire && body == 0},
		{name: "http.self_us", unit: "us", v: plainTiming.selfUS(), moves: movesHTTP, note: httpNote + "batch round trip outside its request spans", missing: noTrace},
		{name: "journal.reqs_per_fsync", unit: "req/fsync", v: ratio(durCompleted, fsyncN), moves: movesJournal, note: twinNote, missing: noTwin},
		{name: "journal.ckpts", unit: "count", v: median(ckpts), moves: movesJournal, note: fmt.Sprintf("per %d requests", twinRequests), missing: noTwin},
		{name: "journal.commit_wait_us", unit: "us", v: durTiming.gapUS(), moves: movesJournal, note: fmt.Sprintf("gap between request spans, %d whole batches", durTiming.Batches), missing: len(durableT) == 0},
		{name: "journal.durable_rps", unit: "1/s", v: median(throughput(durable)), moves: movesDurable, note: twinNote, missing: noTwin},
		{name: "journal.durable_p50_us", unit: "us", v: durLat.P50, moves: movesDurable, note: twinNote, missing: noTwin},
		{name: "disk.fsync_us_p50", unit: "us", v: fs50, moves: movesNone, note: tail(fsN) + " beside the durable twin", missing: noTwin},
		{name: "disk.fsync_us_p99", unit: "us", v: fs99, moves: movesNone, note: tail(fsN) + " beside the durable twin", missing: noTwin},
		{name: "host.steal_pct", unit: "%", v: median(steals) * 100, moves: movesHost, note: "CPU time the hypervisor took during the loads, median over iterations"},
		{name: "recovery.replay_ms", unit: "ms", v: median(replays), moves: movesRecovery, note: fmt.Sprintf("median of %d server.ReplayDir calls", len(replays)), missing: len(replays) == 0},
		{name: "trace.admission_us", unit: "us", v: ratio(adm, sampled) / 1e3, moves: movesTrace, note: fmt.Sprintf("%.0f sampled requests", sampled), missing: noTrace},
		{name: "trace.queue_us", unit: "us", v: ratio(que, sampled) / 1e3, moves: movesTrace, missing: noTrace},
		{name: "trace.service_us", unit: "us", v: ratio(svc, sampled) / 1e3, moves: movesTrace, missing: noTrace},
		{name: "trace.overhead_pct", unit: "%", v: ratio(rpsPlain-rpsTraced, rpsPlain) * 100, moves: movesOverhead, note: "throughput_rps untraced vs traced", missing: noTrace},
		{name: "error_rate", unit: "ratio", v: errorRate(attempts, failed), moves: movesErrors, note: fmt.Sprintf("%d failed of %d attempted", failed, attempts)},
		{name: "disk_bytes_per_req", unit: "B/req", v: ratio(jbytes, durCompleted), moves: movesJournal, note: twinNote, missing: noTwin},
	}
}

// perRequestCounts is the drained control, data and I/O counts per
// request.
func perRequestCounts(u []*iteration) [3]float64 {
	if len(u) == 0 {
		return [3]float64{}
	}
	st := u[0].stats
	n := float64(st.Complete)
	return [3]float64{ratio(float64(st.Counts.Control), n), ratio(float64(st.Counts.Data), n), ratio(float64(st.Counts.IO), n)}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lineJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// line is the result line: the end-to-end metrics, or with --trace 1
// the per-layer ones.
func (r *result) line(opt options) lineJSON {
	out := lineJSON{Correct: r.failure == nil && len(r.its) > 0, Metrics: map[string]metricJSON{}}
	for _, it := range r.its {
		out.Attempted += it.attempts
		out.Failed += it.failed
	}
	if len(r.its) == 0 {
		return out
	}
	vals := r.endToEnd(opt.workload)
	if opt.trace {
		vals = r.perLayer(opt.workload)
	}
	for _, v := range vals {
		out.Metrics[v.name] = metricJSON{Value: v.v, Unit: v.unit}
	}
	return out
}

func (r *result) printTables(wr io.Writer, opt options) {
	w := opt.workload
	groups := r.byKind()
	fmt.Fprintf(wr, "perfbench %s seed=%d seconds=%d trace=%t: %d iterations of %d requests (%d clients, batch %d, %d objects, engine %s)",
		w.name, opt.seed, opt.seconds, opt.trace, len(groups[kind{}]), w.requests, clients, batchSize, w.objects, w.engine)
	if opt.trace {
		fmt.Fprintf(wr, "; %d traced; durable twin of %d requests: %d untraced, %d traced",
			len(groups[kind{traced: true}]), twinRequests, len(groups[kind{durable: true}]), len(groups[kind{traced: true, durable: true}]))
	}
	fmt.Fprintln(wr)
	if r.failure != nil {
		fmt.Fprintf(wr, "CORRECTNESS CHECK FAILED: %v\n", r.failure)
	} else if len(r.its) > 0 {
		checks := "accepted == completed; drained cost == bare engine replay; reply costs == replay"
		if opt.trace {
			checks += "; durable twin: server.ReplayDir == drained stats; traced: trace summary == drained stats"
		}
		fmt.Fprintf(wr, "checks passed on every iteration: %s\n", checks)
	}
	if len(r.its) == 0 {
		return
	}
	fmt.Fprintf(wr, "\nend to end (untraced iterations)\n%-26s %14s %-10s %s\n", "metric", "value", "unit", "based on")
	for _, v := range r.endToEnd(w) {
		fmt.Fprintf(wr, "%-26s %14.6g %-10s %s\n", v.name, v.v, v.unit, v.note)
	}
	fmt.Fprintf(wr, "\nper layer (rows marked - need --trace 1)\n%-26s %14s %-14s %-50s %s\n",
		"metric", "value", "unit", "predicted to move", "based on")
	for _, v := range r.perLayer(w) {
		if v.missing {
			fmt.Fprintf(wr, "%-26s %14s %-14s %-50s %s\n", v.name, "-", v.unit, v.moves, "")
			continue
		}
		fmt.Fprintf(wr, "%-26s %14.6g %-14s %-50s %s\n", v.name, v.v, v.unit, v.moves, v.note)
	}
}

// writeSpans writes the benchmark's own spans of a traced run, kept in
// memory until now, as JSONL beside the run's scratch directory.
func (r *result) writeSpans(dir string, opt options) error {
	if !opt.trace || len(r.its) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload.name, opt.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for _, it := range r.its {
		for i := range it.spans {
			if err := enc.Encode(&it.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
