package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// batchContext is the trace context of client c's b-th batch in
// iteration iter: a pure function of the seed, so the traceparent the
// server sees and the benchmark's own batch span share a reproducible
// trace ID, unique within the run.
func batchContext(seed int64, iter, c, b int) tracing.SpanContext {
	return tracing.DeriveRequest(seed, fmt.Sprintf("perfbench-i%d-c%d", iter, c), uint64(b))
}

// daemon is one objallocd process.
type daemon struct {
	cmd     *exec.Cmd
	stderr  *tailBuffer
	exited  chan struct{}
	waitErr error
	base    string
	setup   time.Duration
}

// startDaemon execs objallocd and returns once GET /v1/healthz answers
// 200; the time from exec to then is the set-up time.
func startDaemon(bin string, args []string, addrfile string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), stderr: &tailBuffer{}, exited: make(chan struct{})}
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start objallocd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("objallocd exited before it was ready (%v): %s", d.waitErr, d.stderr)
		default:
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("objallocd not ready after 30s: %s", d.stderr)
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := hc.Get(d.base + "/v1/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.setup = time.Since(t0)
					return d, nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain and requires exit code 0,
// which objallocd gives only when no accepted request was lost.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("objallocd did not drain within 60s: %s", d.stderr)
	}
	if d.waitErr != nil {
		return fmt.Errorf("objallocd drain: %v: %s", d.waitErr, d.stderr)
	}
	return nil
}

// kill stops the process if it still runs and waits until it has.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// runWire is one iteration of a wire workload: a fresh objallocd, the
// stream posted by 2 HTTP clients, one scrape after the load, SIGTERM,
// then the checks' inputs read from the stats file and the journal.
func runWire(opt options, res *result, in *input, iter int, k kind) (*iteration, error) {
	w := opt.workload
	dir := filepath.Join(opt.workdir, fmt.Sprintf("iter-%d", iter))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addrfile, statsfile := filepath.Join(dir, "addr"), filepath.Join(dir, "stats.json")
	journal, traceFile := filepath.Join(dir, "journal"), filepath.Join(dir, "trace.jsonl")
	args := append(w.daemonArgs(), "-addr", "127.0.0.1:0", "-addrfile", addrfile, "-statsfile", statsfile)
	if k.durable {
		args = append(args, "-journal", journal)
	}
	if k.traced {
		args = append(args, "-trace", traceFile, "-trace-sample", fmt.Sprint(traceSample))
	}

	it := &iteration{kind: k, switches: -1}
	t0 := res.since()
	d, err := startDaemon(opt.objallocd, args, addrfile)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	it.setup = []time.Duration{d.setup}
	it.span(opt, iter, "setup", t0, d.setup)

	var body atomic.Int64
	type clientOut struct {
		rtts             []time.Duration
		attempts, failed int
		cost             float64
		spans            []clientSpan
		err              error
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	// The clients are the measuring instrument: keep their garbage
	// collector out of the round trips they time. An iteration's garbage
	// is a few MiB, collected once the load is done.
	gcPercent := debug.SetGCPercent(-1)
	ticks, err := readCPUTicks("/proc/stat")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
			if opt.trace {
				rt = countingTransport{base: rt, n: &body}
			}
			hc := &http.Client{Transport: rt}
			defer hc.CloseIdleConnections()
			cl := &server.Client{Base: d.base, HTTP: hc}
			out.rtts = make([]time.Duration, 0, len(in.batches[c]))
			for b, batch := range in.batches[c] {
				var sc tracing.SpanContext
				if opt.trace {
					sc = batchContext(opt.seed, iter, c, b)
				}
				sent := sc
				if !k.traced {
					sent = tracing.SpanContext{}
				}
				bt := time.Now()
				for reqs := batch; len(reqs) > 0; {
					resp, err := cl.BatchTraced(sent, reqs)
					out.attempts += len(reqs)
					if err != nil {
						out.err = err
						return
					}
					for _, r := range resp.Results[:resp.Done] {
						if r.Err != "" || r.Duplicate {
							out.failed++
						}
						out.cost += r.Cost
					}
					out.failed += len(reqs) - resp.Done
					if resp.Draining || resp.Unavailable {
						out.err = fmt.Errorf("server refused a batch (draining %t, unavailable %t)", resp.Draining, resp.Unavailable)
						return
					}
					reqs = reqs[resp.Done:]
					if len(reqs) > 0 {
						time.Sleep(time.Duration(resp.RetryAfterMS) * time.Millisecond)
					}
				}
				rtt := time.Since(bt)
				out.rtts = append(out.rtts, rtt)
				if opt.trace {
					out.spans = append(out.spans, clientSpan{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: "batch",
						Iter: iter, StartNS: int64(bt.Sub(res.start)), DurNS: int64(rtt)})
				}
			}
		}(c)
	}
	wg.Wait()
	it.load = time.Since(start)
	debug.SetGCPercent(gcPercent)
	after, err := readCPUTicks("/proc/stat")
	if err != nil {
		return nil, err
	}
	it.steal = stealShare(ticks, after)
	for c, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("client %d: %w", c, out.err)
		}
		it.rtts = append(it.rtts, out.rtts...)
		it.attempts += out.attempts
		it.failed += out.failed
		it.clientCost[c] = out.cost
		it.spans = append(it.spans, out.spans...)
	}
	it.lat = summarize(micros(it.rtts))
	it.bodyBytes = body.Load()

	// The one scrape, after the load: a scrape turns on the server's
	// per-request latency histogram, which would change what is measured.
	sr, err := (&server.Client{Base: d.base}).StatsFull()
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/stats: %w", err)
	}
	http.DefaultClient.CloseIdleConnections()
	it.ops = sr.Ops
	if it.rssKB, err = peakRSSKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(statsfile)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &it.stats); err != nil {
		return nil, fmt.Errorf("stats file: %w", err)
	}
	if it.journal, err = readJournalUsage(journal); err != nil {
		return nil, err
	}
	if k.durable {
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

// span records one of the benchmark's own spans in trace mode.
func (it *iteration) span(opt options, iter int, name string, startNS int64, d time.Duration) {
	if !opt.trace {
		return
	}
	sc := tracing.DeriveRequest(opt.seed, "perfbench-"+name, uint64(iter))
	it.spans = append(it.spans, clientSpan{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: name,
		Iter: iter, StartNS: startNS, DurNS: int64(d)})
}

func parseTrace(path string) (*tracing.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := tracing.Parse(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return a, nil
}

// countingTransport adds the bytes of every request and response body
// to n.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.n.Add(r.ContentLength)
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// tailBuffer keeps the last few KiB a child process wrote to stderr, for
// error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}
