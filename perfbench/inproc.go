package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"objalloc/internal/obs"
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// childResult is what one in-process iteration reports to the parent.
type childResult struct {
	SetupNS    []int64          `json:"setup_ns"`
	LoadNS     int64            `json:"load_ns"`
	Steal      float64          `json:"steal"`
	RTTNS      []int64          `json:"rtt_ns"`
	Lat        latencies        `json:"lat"`
	Attempts   int              `json:"attempts"`
	Failed     int              `json:"failed"`
	ClientCost [clients]float64 `json:"client_cost"`
	Stats      server.Stats     `json:"stats"`
	Ops        obs.Snapshot     `json:"ops"`
	Switches   int              `json:"switches"`
	PeakRSSKB  int64            `json:"peak_rss_kb"`
	Spans      []clientSpan     `json:"spans,omitempty"`
}

// runInproc is one iteration of an in-process workload. The server runs
// in a child process of its own, so its peak RSS is measured alone and
// every iteration starts from a fresh heap, as a fresh daemon does.
func runInproc(opt options, res *result, in *input, iter int, k kind) (*iteration, error) {
	w := opt.workload
	dir := filepath.Join(opt.workdir, fmt.Sprintf("iter-%d", iter))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	traceFile := filepath.Join(dir, "trace.jsonl")
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal")
	args := []string{"inproc-child", "-workload", w.name, "-seed", fmt.Sprint(opt.seed),
		"-requests", fmt.Sprint(in.requests), "-iter", fmt.Sprint(iter)}
	if opt.trace {
		args = append(args, "-spans")
	}
	if k.durable {
		args = append(args, "-journal", journal)
	}
	if k.traced {
		args = append(args, "-tracefile", traceFile)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	stderr := &tailBuffer{}
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := res.since()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(120*time.Second, func() { cmd.Process.Kill() })
	err = cmd.Wait()
	timer.Stop()
	if err != nil {
		return nil, fmt.Errorf("in-process child: %v: %s", err, stderr)
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return nil, fmt.Errorf("in-process child output: %w", err)
	}
	it := &iteration{
		kind:       k,
		load:       time.Duration(cr.LoadNS),
		steal:      cr.Steal,
		attempts:   cr.Attempts,
		failed:     cr.Failed,
		clientCost: cr.ClientCost,
		stats:      cr.Stats,
		ops:        cr.Ops,
		switches:   cr.Switches,
		rssKB:      cr.PeakRSSKB,
		lat:        cr.Lat,
	}
	for _, ns := range cr.SetupNS {
		it.setup = append(it.setup, time.Duration(ns))
	}
	for _, ns := range cr.RTTNS {
		it.rtts = append(it.rtts, time.Duration(ns))
	}
	for _, s := range cr.Spans {
		s.Iter = iter
		s.StartNS += started
		it.spans = append(it.spans, s)
	}
	if k.durable {
		if it.journal, err = readJournalUsage(journal); err != nil {
			return nil, err
		}
		t0 := res.since()
		if err := timeReplayDir(w, journal, it); err != nil {
			return nil, err
		}
		it.span(opt, iter, "replay_dir", t0, it.replay)
		if it.probe, err = fsyncProbe(dir, probeSyncs); err != nil {
			return nil, fmt.Errorf("fsync probe: %w", err)
		}
	}
	if k.traced {
		a, err := parseTrace(traceFile)
		if err != nil {
			return nil, err
		}
		it.trace = summarizeTrace(a, it.spans)
	}
	return it, nil
}

// inprocChild is the serving process of an in-process iteration:
// server.New, the stream sent through Server.DoTraced by 2 goroutines,
// each call timed alone and each batch of batchSize calls timed as a
// whole, the drain, and the result as JSON on standard output.
func inprocChild(args []string) error {
	fs := flag.NewFlagSet("inproc-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	requests := fs.Int("requests", 0, "the first requests of the workload's stream to send")
	iter := fs.Int("iter", 0, "iteration number, for the batches' trace IDs")
	journal := fs.String("journal", "", "journal directory of the server")
	traceFile := fs.String("tracefile", "", "trace the server into this file")
	withSpans := fs.Bool("spans", false, "report the benchmark's own batch spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	streams := w.streams(*seed, *requests)
	names := w.names()
	cfg := w.config()
	cfg.Journal = *journal
	var bw *bufio.Writer
	var tf *os.File
	if *traceFile != "" {
		if tf, err = os.Create(*traceFile); err != nil {
			return err
		}
		bw = bufio.NewWriterSize(tf, 1<<20)
		cfg.Trace = tracing.New(tracing.Config{Stream: bw, SampleRate: traceSample})
	}
	var contexts [][]tracing.SpanContext
	if *traceFile != "" || *withSpans {
		for c, s := range streams {
			var cs []tracing.SpanContext
			for b := 0; b*batchSize < len(s); b++ {
				cs = append(cs, batchContext(*seed, *iter, c, b))
			}
			contexts = append(contexts, cs)
		}
	}

	var cr childResult
	if *journal == "" {
		// Extra set-ups, so setup_s is a median over many; the server
		// that serves the load is set up last.
		for i := 1; i < setupSamples; i++ {
			t0 := time.Now()
			srv, err := server.New(cfg)
			if err != nil {
				return err
			}
			cr.SetupNS = append(cr.SetupNS, int64(time.Since(t0)))
			if err := srv.Close(); err != nil {
				return err
			}
		}
	}
	origin := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	cr.SetupNS = append(cr.SetupNS, int64(time.Since(origin)))

	type clientOut struct {
		rtts, lats       []int64
		attempts, failed int
		cost             float64
		spans            []clientSpan
		err              error
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	ticks, err := readCPUTicks("/proc/stat")
	if err != nil {
		return err
	}
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			s := streams[c]
			out.rtts = make([]int64, 0, len(s)/batchSize+1)
			out.lats = make([]int64, 0, len(s))
			for b := 0; b*batchSize < len(s); b++ {
				var sc tracing.SpanContext
				if contexts != nil {
					sc = contexts[c][b]
				}
				bt := time.Now()
				for _, q := range s[b*batchSize : min((b+1)*batchSize, len(s))] {
					qt := time.Now()
					for {
						out.attempts++
						r, err := srv.DoTraced(names[q.obj], q.model(), sc)
						if err == nil {
							out.cost += r.Cost
							break
						}
						if r.Err != nil {
							// A service error: the request was consumed.
							out.failed++
							out.cost += r.Cost
							break
						}
						var ov *server.Overloaded
						if !errors.As(err, &ov) {
							out.err = err
							return
						}
						out.failed++
						time.Sleep(ov.RetryAfter)
					}
					out.lats = append(out.lats, int64(time.Since(qt)))
				}
				rtt := time.Since(bt)
				out.rtts = append(out.rtts, int64(rtt))
				if *withSpans {
					out.spans = append(out.spans, clientSpan{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: "batch",
						StartNS: int64(bt.Sub(origin)), DurNS: int64(rtt)})
				}
			}
		}(c)
	}
	wg.Wait()
	cr.LoadNS = int64(time.Since(start))
	after, err := readCPUTicks("/proc/stat")
	if err != nil {
		return err
	}
	cr.Steal = stealShare(ticks, after)
	cr.Ops = srv.Ops()
	srv.Drain()
	cr.Stats = srv.Stats()
	for _, st := range srv.ObjectStats() {
		cr.Switches += len(st.Transitions)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if cr.PeakRSSKB, err = peakRSSKB("/proc/self/status"); err != nil {
		return err
	}
	var lats []float64
	for c, out := range outs {
		if out.err != nil {
			return fmt.Errorf("client %d: %w", c, out.err)
		}
		for _, ns := range out.lats {
			lats = append(lats, float64(ns)/1e3)
		}
		cr.RTTNS = append(cr.RTTNS, out.rtts...)
		cr.Attempts += out.attempts
		cr.Failed += out.failed
		cr.ClientCost[c] = out.cost
		cr.Spans = append(cr.Spans, out.spans...)
	}
	cr.Lat = summarize(lats)
	if tf != nil {
		if _, err := cfg.Trace.WriteTo(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}
