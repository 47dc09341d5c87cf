package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// This file holds the benchmark's derivations: pure functions from raw
// observations (timings, drained stats, journal files, spans) to the
// reported metrics. derive_test.go checks each of them on fixtures.

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples — the value at rank ceil(p*n) in ascending order — and the
// number of samples. Zero samples give 0.
func percentile(samples []float64, p float64) (float64, int) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return nearestRank(s, p), len(s)
}

// nearestRank is percentile over samples already in ascending order.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// latencies are one iteration's request latency percentiles and mean,
// in microseconds, and the number of samples they rest on. On the wire
// a sample is one batch's round trip: every request of a batch waits
// that round trip and every batch holds batchSize requests, so a
// percentile of batch round trips is the same percentile of request
// latencies. In process a sample is one Server.Do call, timed alone.
type latencies struct {
	P50, P90, P99, Mean float64
	N                   int
}

// summarize computes the latencies of the samples, given in
// microseconds.
func summarize(samples []float64) latencies {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return latencies{P50: nearestRank(s, 0.50), P90: nearestRank(s, 0.90), P99: nearestRank(s, 0.99),
		Mean: ratio(sum, float64(len(s))), N: len(s)}
}

// tailSupported reports whether a p-quantile over n samples has at
// least ten samples beyond it, the rule for reporting a tail at all.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// micros converts durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errorRate is failed attempts over all attempts: a refused request
// that is resubmitted and then served counts once as failed and twice
// as attempted.
func errorRate(attempted, failed int) float64 { return ratio(float64(failed), float64(attempted)) }

// journalUsage is what a journal directory holds after the drain.
type journalUsage struct {
	Bytes   int64 // all shard journals
	Records int   // request records
	Ckpts   int   // checkpoint records
}

// readJournalUsage sizes every shard journal in dir and counts its
// request and checkpoint lines. Checkpoint lines are the ones that
// start with {"t": — the same test the server's replay uses. A missing
// directory is an empty journal.
func readJournalUsage(dir string) (journalUsage, error) {
	var u journalUsage
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return u, err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return u, err
		}
		u.Bytes += int64(len(data))
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case len(line) == 0:
			case bytes.HasPrefix(line, []byte(`{"t":`)):
				u.Ckpts++
			default:
				u.Records++
			}
		}
		if err := sc.Err(); err != nil {
			return u, err
		}
	}
	return u, nil
}

// peakRSSKB reads a process's peak resident set (VmHWM) from its
// /proc status file. The rusage of a waited-for child is no substitute:
// on Linux its maxrss also counts the parent's memory at the fork.
func peakRSSKB(statusFile string) (int64, error) {
	data, err := os.ReadFile(statusFile)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %q: %w", statusFile, line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", statusFile)
}

// cpuTicks is the host's CPU time from /proc/stat: the ticks the
// hypervisor stole from this machine's CPUs and all ticks.
type cpuTicks struct{ steal, total int64 }

// readCPUTicks parses the aggregate "cpu" line of a /proc/stat file.
func readCPUTicks(statFile string) (cpuTicks, error) {
	data, err := os.ReadFile(statFile)
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("%s: unexpected first line %q", statFile, line)
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("%s: %q: %w", statFile, line, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// shardHist sums the count and sum of every per-shard histogram with
// the given suffix (shard0.batch_size, shard1.batch_size, ...).
func shardHist(snap obs.Snapshot, suffix string) (count, sum int64) {
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "shard") && strings.HasSuffix(h.Name, "."+suffix) {
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}

// fsyncs is the number of journal fsyncs a drained run made: one per
// non-empty service round (the group commit; every round with requests
// has records to commit) plus one per checkpoint record. A run without
// a journal made none.
func fsyncs(snap obs.Snapshot, u journalUsage, journaled bool) int64 {
	if !journaled {
		return 0
	}
	rounds, _ := shardHist(snap, "batch_size")
	return rounds + int64(u.Ckpts)
}

// batchSpans groups a parsed trace's request spans by the trace ID the
// client's traceparent gave each batch.
func batchSpans(spans []tracing.Span) map[string][]tracing.Span {
	out := make(map[string][]tracing.Span)
	for _, s := range spans {
		if s.Name == tracing.NameRequest {
			out[s.Trace] = append(out[s.Trace], s)
		}
	}
	return out
}

// batchTiming is what the request spans of whole batches say about the
// time between them, as sums so that iterations add up.
type batchTiming struct {
	Batches int   // batches whose every request span was kept
	Gaps    int   // gaps measured
	GapNS   int64 // total gap between consecutive request spans
	Selves  int   // batches with a client round trip
	SelfNS  int64 // total client round trip outside the spans' extent
}

func (b batchTiming) add(o batchTiming) batchTiming {
	return batchTiming{Batches: b.Batches + o.Batches, Gaps: b.Gaps + o.Gaps, GapNS: b.GapNS + o.GapNS,
		Selves: b.Selves + o.Selves, SelfNS: b.SelfNS + o.SelfNS}
}

// gapUS is the mean gap from one request span's end to the next one's
// start: time a batch spends between its requests, which on a journaled
// server is the group commit.
func (b batchTiming) gapUS() float64 { return ratio(float64(b.GapNS), float64(b.Gaps)) / 1e3 }

// selfUS is the mean client round trip outside the extent from a
// batch's first request span's start to its last one's end: decode,
// encode and transport.
func (b batchTiming) selfUS() float64 { return ratio(float64(b.SelfNS), float64(b.Selves)) / 1e3 }

// withinBatch measures the batches whose every request span was kept
// (size spans). rtt gives the client round trip per trace ID; batches
// without one count for the gaps only.
func withinBatch(groups map[string][]tracing.Span, size int, rtt map[string]time.Duration) batchTiming {
	var bt batchTiming
	for trace, g := range groups {
		if len(g) != size {
			continue
		}
		s := append([]tracing.Span(nil), g...)
		sort.Slice(s, func(i, j int) bool { return s[i].StartNS < s[j].StartNS })
		bt.Batches++
		for i := 1; i < len(s); i++ {
			bt.GapNS += s[i].StartNS - (s[i-1].StartNS + s[i-1].DurNS)
			bt.Gaps++
		}
		if d, ok := rtt[trace]; ok {
			last := s[len(s)-1]
			bt.SelfNS += int64(d) - (last.StartNS + last.DurNS - s[0].StartNS)
			bt.Selves++
		}
	}
	return bt
}

// traceStats is what one traced iteration's trace file says, reduced
// as soon as it is parsed so a run never holds more than one trace.
type traceStats struct {
	summary  *tracing.Summary
	requests int
	// Sums over the sampled requests of their admission, queue, service
	// and whole-request span durations.
	admissionNS, queueNS, serviceNS, totalNS int64
	timing                                   batchTiming
}

// summarizeTrace reduces a parsed trace; spans are the benchmark's own
// spans of the same iteration, whose batch spans give the round trips.
func summarizeTrace(a *tracing.Analysis, spans []clientSpan) *traceStats {
	ts := &traceStats{summary: a.Summary, requests: len(a.Requests)}
	for _, rv := range a.Requests {
		ts.admissionNS += rv.AdmissionNS
		ts.queueNS += rv.QueueNS
		ts.serviceNS += rv.ServiceNS
		ts.totalNS += rv.TotalNS
	}
	rtt := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Name == "batch" {
			rtt[s.Trace] = time.Duration(s.DurNS)
		}
	}
	ts.timing = withinBatch(batchSpans(a.Spans), batchSize, rtt)
	return ts
}
