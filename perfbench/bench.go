package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"objalloc/internal/cost"
	"objalloc/internal/multiobject"
	"objalloc/internal/obs"
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// iteration is everything one server lifetime produced: the timings the
// benchmark took around its calls, the drained accounting, and what the
// server left on disk.
type iteration struct {
	kind
	setup      []time.Duration // exec → healthz 200, or each server.New
	load       time.Duration   // first request sent → last reply received
	steal      float64         // share of the host's CPU time stolen during the load
	rtts       []time.Duration // one round trip per batch
	lat        latencies       // request latencies of the load
	attempts   int             // requests sent, resubmissions included
	failed     int             // refused (overloaded, unavailable, draining) or errored
	clientCost [clients]float64
	stats      server.Stats // drained
	ops        obs.Snapshot // scraped once after the load, before the drain
	rssKB      int64        // peak RSS of the serving process after the load
	journal    journalUsage
	replay     time.Duration // server.ReplayDir over the drained journal
	replayed   *server.Stats
	bodyBytes  int64 // HTTP request and response bodies (trace mode only)
	switches   int   // protocol switches the server reported; -1 when it cannot tell
	spans      []clientSpan
	trace      *traceStats     // traced iterations only
	probe      []time.Duration // disk probe beside a durable iteration
}

// clientSpan is one span the benchmark records around a call into the
// program. Batch spans carry the batch's trace ID, which the server's
// own request spans share.
type clientSpan struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNS int64  `json:"start_ns"` // since the run started
	DurNS   int64  `json:"dur_ns"`
}

// bareRun is the same stream replayed through a bare multiobject.DB
// built from the normalized server config: the reference accounting
// and the engine layer's cost.
type bareRun struct {
	counts        cost.Counts
	cost          float64
	objects       int
	reads, writes uint64
	clientCost    [clients]float64
	switches      int
	elapsed       time.Duration
	mallocs       uint64
}

func bareReplay(w workload, streams [][]req) (bareRun, error) {
	cfg := w.config()
	if err := cfg.Normalize(); err != nil {
		return bareRun{}, err
	}
	db, err := multiobject.Open(multiobject.Config{Factory: cfg.Factory, T: cfg.T, Placement: cfg.Placement, Model: cfg.Model})
	if err != nil {
		return bareRun{}, err
	}
	names := w.names()
	var br bareRun
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for c, s := range streams {
		for _, q := range s {
			d, err := db.ApplyDetail(names[q.obj], q.model())
			if err != nil {
				return bareRun{}, err
			}
			br.clientCost[c] += d.Cost
		}
	}
	br.elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	br.mallocs = after.Mallocs - before.Mallocs
	for _, s := range streams {
		for _, q := range s {
			if q.write {
				br.writes++
			} else {
				br.reads++
			}
		}
	}
	br.counts = db.TotalCounts()
	br.cost = db.TotalCost()
	br.objects = db.Objects()
	for _, st := range db.AllStats() {
		br.switches += len(st.Transitions)
	}
	return br, nil
}

// kind is what an iteration runs: the workload itself or its durable
// twin, untraced or traced.
type kind struct {
	traced, durable bool
}

// kinds is the cycle of iteration kinds a run makes.
func kinds(trace bool) []kind {
	if !trace {
		return []kind{{}}
	}
	return []kind{{}, {traced: true}, {durable: true}, {traced: true, durable: true}}
}

// input is the stream an iteration sends, with its reference replay.
type input struct {
	requests int
	streams  [][]req
	batches  [][][]server.WireRequest // wire workloads only
	bare     bareRun
}

// result is one run: every iteration plus the reference replays.
type result struct {
	start   time.Time
	bare    []bareRun // replays of the workload's own stream
	its     []*iteration
	spans   []clientSpan // the benchmark's spans outside any iteration
	failure error        // the failed correctness check, if any
}

func (r *result) since() int64 { return int64(time.Since(r.start)) }

// replayBare runs one bare engine replay of the streams.
func (r *result) replayBare(opt options, streams [][]req) (bareRun, error) {
	t0 := r.since()
	br, err := bareReplay(opt.workload, streams)
	if err != nil {
		return br, fmt.Errorf("bare engine replay: %w", err)
	}
	if opt.trace {
		sc := tracing.DeriveRequest(opt.seed, "perfbench-engine_replay", uint64(len(r.spans)))
		r.spans = append(r.spans, clientSpan{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: "engine_replay",
			Iter: -1, StartNS: t0, DurNS: int64(br.elapsed)})
	}
	return br, nil
}

// prepare generates the first requests of the workload's stream, ready
// to send, and replays it through the bare engine.
func (r *result) prepare(opt options, requests int) (*input, error) {
	in := &input{requests: requests, streams: opt.workload.streams(opt.seed, requests)}
	if opt.workload.wire {
		for _, s := range in.streams {
			in.batches = append(in.batches, wireBatches(s, batchSize))
		}
	}
	var err error
	in.bare, err = r.replayBare(opt, in.streams)
	return in, err
}

// measure runs iterations of the workload until opt.seconds have passed
// and each kind has minIterations, checking every one.
func measure(opt options) (*result, error) {
	w := opt.workload
	res := &result{start: time.Now()}
	plain, err := res.prepare(opt, w.requests)
	if err != nil {
		return res, err
	}
	res.bare = append(res.bare, plain.bare)
	twin := plain
	if opt.trace && twinRequests < w.requests {
		if twin, err = res.prepare(opt, twinRequests); err != nil {
			return res, err
		}
	}
	ks := kinds(opt.trace)
	done := make([]int, len(ks))
	for i := 0; ; i++ {
		if time.Since(res.start) > runLimit {
			return res, fmt.Errorf("run exceeded %s after %d iterations", runLimit, i)
		}
		k, in := ks[i%len(ks)], plain
		if k.durable {
			in = twin
		}
		var it *iteration
		if w.wire {
			it, err = runWire(opt, res, in, i, k)
		} else {
			it, err = runInproc(opt, res, in, i, k)
		}
		if err != nil {
			return res, fmt.Errorf("iteration %d: %w", i, err)
		}
		res.its = append(res.its, it)
		fmt.Fprintf(os.Stderr, "perfbench: iteration %d %+v: %.0f req/s, p50 %.1f us, steal %.1f%%, %.1f s into the run\n",
			i, k, float64(in.requests)/it.load.Seconds(), it.lat.P50, it.steal*100, time.Since(res.start).Seconds())
		if err := check(in, it); err != nil {
			res.failure = fmt.Errorf("iteration %d %+v: %w", i, k, err)
			return res, errIncorrect
		}
		done[i%len(ks)]++
		if time.Since(res.start) >= time.Duration(opt.seconds)*time.Second && slices.Min(done) >= minIterations {
			break
		}
	}
	if opt.trace {
		// engine.apply_ns is the median of three replays.
		for len(res.bare) < 3 {
			br, err := res.replayBare(opt, plain.streams)
			if err != nil {
				return res, err
			}
			res.bare = append(res.bare, br)
		}
	}
	return res, nil
}

// check fails the run when the server's drained accounting is not the
// reference accounting of the stream it was sent.
func check(in *input, it *iteration) error {
	st, br := it.stats, in.bare
	if !st.Final {
		return fmt.Errorf("drained stats are not final")
	}
	if st.Accepted != st.Complete {
		return fmt.Errorf("accepted %d != completed %d at drain", st.Accepted, st.Complete)
	}
	if st.Complete != uint64(in.requests) {
		return fmt.Errorf("completed %d of %d requests", st.Complete, in.requests)
	}
	if st.Counts != br.counts || st.Cost != br.cost || st.Objects != br.objects ||
		st.Reads != br.reads || st.Writes != br.writes {
		return fmt.Errorf("drained accounting %v cost %v objects %d reads %d writes %d != bare engine replay %v cost %v objects %d reads %d writes %d",
			st.Counts, st.Cost, st.Objects, st.Reads, st.Writes, br.counts, br.cost, br.objects, br.reads, br.writes)
	}
	// Each client's replies are the replay's requests in the replay's
	// order, so the float sums match exactly.
	if it.clientCost != br.clientCost {
		return fmt.Errorf("per-client reply cost %v != bare engine replay %v", it.clientCost, br.clientCost)
	}
	if it.switches >= 0 && it.switches != br.switches {
		return fmt.Errorf("server reported %d protocol switches, bare engine replay %d", it.switches, br.switches)
	}
	if it.durable {
		if it.replayed == nil {
			return fmt.Errorf("journal was not replayed")
		}
		rp := *it.replayed
		if rp.Accepted != st.Accepted || rp.Complete != st.Complete || rp.Reads != st.Reads || rp.Writes != st.Writes ||
			rp.Objects != st.Objects || rp.Counts != st.Counts || rp.Cost != st.Cost || rp.Coalesce != st.Coalesce ||
			rp.Retrans != st.Retrans || rp.Unreach != st.Unreach || rp.Dups != st.Dups {
			return fmt.Errorf("server.ReplayDir %+v != drained stats %+v (live != replay)", rp, st)
		}
	}
	if it.traced {
		sum := it.trace.summary
		if sum == nil {
			return fmt.Errorf("trace has no summary line")
		}
		if sum.Requests != int64(in.requests) || sum.CostMilli != int64(math.Round(st.Cost*1000)) {
			return fmt.Errorf("trace summary %d requests cost_milli %d != drained %d requests cost %v",
				sum.Requests, sum.CostMilli, st.Complete, st.Cost)
		}
	}
	return nil
}

// timeReplayDir times server.ReplayDir over a drained journal.
func timeReplayDir(w workload, dir string, it *iteration) error {
	cfg := w.config()
	cfg.Journal = dir
	t0 := time.Now()
	st, err := server.ReplayDir(cfg)
	it.replay = time.Since(t0)
	if err != nil {
		return fmt.Errorf("server.ReplayDir: %w", err)
	}
	it.replayed = &st
	return nil
}

// fsyncProbe appends a journal-sized record and fsyncs it n times in
// dir, timing each pair: the disk's own latency beside the run, which
// no code change should move.
func fsyncProbe(dir string, n int) ([]time.Duration, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	rec := make([]byte, 128)
	rec[len(rec)-1] = '\n'
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, f.Close()
}
