package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// TestBatchTraceparentValidation table-drives the traceparent header
// handling: malformed values are rejected cleanly with 400 before any
// request is admitted; valid and absent headers are accepted.
func TestBatchTraceparentValidation(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 4, T: 2, Trace: tracing.New(tracing.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid := tracing.DeriveRequest(1, "client", 0).Traceparent()
	for _, tc := range []struct {
		name   string
		header string
		status int
	}{
		{"absent", "", http.StatusOK},
		{"valid", valid, http.StatusOK},
		{"truncated", valid[:40], http.StatusBadRequest},
		{"bad version", "99" + valid[2:], http.StatusBadRequest},
		{"bad separators", strings.ReplaceAll(valid, "-", "_"), http.StatusBadRequest},
		{"non-hex trace", valid[:3] + strings.Repeat("x", 32) + valid[35:], http.StatusBadRequest},
		{"zero trace", valid[:3] + strings.Repeat("0", 32) + valid[35:], http.StatusBadRequest},
		{"zero span", valid[:36] + strings.Repeat("0", 16) + valid[52:], http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch",
				strings.NewReader(`{"requests":[{"object":"a","op":"r","processor":0}]}`))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("traceparent", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	st := s.Stats()
	if st.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (absent + valid only)", st.Accepted)
	}
}

// TestBatchBodyLimit checks an oversized batch body is refused with 413
// before any request is admitted, and that a body just under the limit
// still parses.
func TestBatchBodyLimit(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One JSON document comfortably past the limit: the decoder must
	// keep reading it and trip the MaxBytesReader.
	entry := `{"object":"o","op":"r","processor":0},`
	var big bytes.Buffer
	big.WriteString(`{"requests":[`)
	for big.Len() <= maxBatchBytes {
		big.WriteString(entry)
	}
	big.WriteString(`{"object":"o","op":"r","processor":0}]}`)

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("oversized body admitted %d requests", st.Accepted)
	}

	c := &Client{Base: ts.URL}
	ok, err := c.Batch([]WireRequest{{Object: "o", Op: "r", Processor: 0}})
	if err != nil || ok.Done != 1 {
		t.Fatalf("normal batch after rejection: %+v, %v", ok, err)
	}
}

// TestClientBatchAllHonorsRetryHint stalls the single shard so its
// 1-slot queue fills, then checks BatchAllCtx resubmits the unserviced
// tail after the server's Overloaded retry hint until everything
// completes.
func TestClientBatchAllHonorsRetryHint(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	s, err := New(Config{
		Shards: 1, Queue: 1, Batch: 1, N: 2, T: 1,
		testBeforeRound: func(int) { <-stall },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the queue slot while the shard loop is stalled.
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		s.Do("filler", model.R(0))
	}()
	for len(s.shards[0].mail) == 0 {
		runtime.Gosched()
	}

	// Release the stall only after the server has rejected at least one
	// request, proving BatchAllCtx really hit the overload path.
	go func() {
		for s.shards[0].rejected.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		once.Do(func() { close(stall) })
	}()

	c := &Client{Base: ts.URL}
	reqs := []WireRequest{
		{Object: "filler", Op: "r", Processor: 0},
		{Object: "filler", Op: "w", Processor: 1},
		{Object: "other", Op: "r", Processor: 0},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	results, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("BatchAllCtx serviced %d/%d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Object != reqs[i].Object || r.Op != reqs[i].Op {
			t.Fatalf("result %d = %+v out of order vs %+v", i, r, reqs[i])
		}
	}
	<-bgDone
	once.Do(func() { close(stall) })
	s.Drain()
	st := s.Stats()
	if st.Rejected == 0 {
		t.Fatal("retry test never triggered an overload")
	}
	if st.Accepted != st.Complete {
		t.Fatalf("accepted %d != completed %d", st.Accepted, st.Complete)
	}
}

// TestStatsIncludesHistograms checks GET /v1/stats carries the ops
// registry's histogram snapshots (bucket bounds and counts).
func TestStatsIncludesHistograms(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	if _, err := c.Batch([]WireRequest{{Object: "a", Op: "w", Processor: 1}}); err != nil {
		t.Fatal(err)
	}
	full, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Accepted != 1 {
		t.Fatalf("stats accepted = %d, want 1", full.Stats.Accepted)
	}
	if len(full.Ops.Histograms) == 0 {
		t.Fatal("/v1/stats carries no histogram snapshots")
	}
	var sawDepth bool
	for _, h := range full.Ops.Histograms {
		if len(h.Bounds) == 0 || len(h.Buckets) != len(h.Bounds)+1 {
			t.Fatalf("histogram %s has bounds/buckets %d/%d", h.Name, len(h.Bounds), len(h.Buckets))
		}
		if h.Name == "shard0.queue_depth" {
			sawDepth = true
		}
	}
	if !sawDepth {
		t.Fatal("queue-depth histogram missing from /v1/stats")
	}
}

// TestMetricsExposition checks GET /v1/metrics renders the Prometheus
// text format, including the request-latency histogram (populated once
// a scrape has armed wall-clock measurement) and, when tracing is on,
// a slow-request exemplar trace ID.
func TestMetricsExposition(t *testing.T) {
	tr := tracing.New(tracing.Config{})
	s, err := New(Config{
		Shards: 1, N: 4, T: 2, Trace: tr,
		Obs: &obs.Obs{Registry: obs.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	if _, err := c.Batch([]WireRequest{
		{Object: "a", Op: "r", Processor: 0},
		{Object: "a", Op: "w", Processor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE objalloc_shard0_queue_depth histogram",
		"objalloc_shard0_queue_depth_bucket{le=\"+Inf\"}",
		"# TYPE objalloc_server_request_latency_us histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// The tracer is non-deterministic and saw requests, so the latency
	// histogram's +Inf line must carry an exemplar trace id.
	if !strings.Contains(text, `trace_id="`) {
		t.Fatalf("exposition missing exemplar:\n%s", text)
	}

	s.Drain()
	text, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "objalloc_server_requests 2") {
		t.Fatalf("post-drain exposition missing accounting counters:\n%s", text)
	}
}

// TestMetricsHandlerWithoutObs covers the drained exposition when no
// accounting registry is attached.
func TestMetricsHandlerWithoutObs(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("x", model.R(0)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "objalloc_shard0_queue_depth_count") {
		t.Fatalf("ops histograms missing:\n%s", text)
	}
}

// TestBadBatchAdmitsNothing checks the whole batch is validated before
// any of it is admitted: a bad op, an empty object or an out-of-range
// processor anywhere in the batch answers 400 with nothing serviced or
// billed, so a client that resends the batch is not billed twice.
func TestBadBatchAdmitsNothing(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 8, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ name, body string }{
		{"unknown op", `{"requests":[{"object":"a","op":"x","processor":0}]}`},
		{"bad op after a good request", `{"requests":[{"object":"a","op":"r","processor":0},{"object":"b","op":"x","processor":0}]}`},
		{"processor out of range", `{"requests":[{"object":"c","op":"r","processor":99}]}`},
		{"negative processor after a good request", `{"requests":[{"object":"a","op":"w","processor":1},{"object":"d","op":"r","processor":-1}]}`},
		{"empty object", `{"requests":[{"object":"a","op":"r","processor":0},{"object":"","op":"r","processor":0}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if st := s.Stats(); st.Accepted != 0 || st.Complete != 0 {
				t.Fatalf("rejected batch admitted %d, completed %d requests", st.Accepted, st.Complete)
			}
		})
	}
}

// stalledServer starts a server whose shard loops block at the top of
// every round until release is called.
func stalledServer(t *testing.T, cfg Config) (s *Server, release func()) {
	t.Helper()
	stall := make(chan struct{})
	var once sync.Once
	cfg.testBeforeRound = func(int) { <-stall }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release = func() { once.Do(func() { close(stall) }) }
	t.Cleanup(func() {
		release()
		s.Close()
	})
	return s, release
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// batchOf builds n requests over a few objects, alternating reads and
// writes.
func batchOf(n int) []WireRequest {
	reqs := make([]WireRequest, n)
	for i := range reqs {
		op := "r"
		if i%3 == 0 {
			op = "w"
		}
		reqs[i] = WireRequest{Object: fmt.Sprintf("o%d", i%5), Op: op, Processor: i % 4}
	}
	return reqs
}

// checkPrefix checks a reply's results echo the first done requests in
// order.
func checkPrefix(t *testing.T, resp BatchResponse, reqs []WireRequest, done int) {
	t.Helper()
	if resp.Done != done || len(resp.Results) != done {
		t.Fatalf("done = %d with %d results, want %d", resp.Done, len(resp.Results), done)
	}
	for i, r := range resp.Results {
		if r.Object != reqs[i].Object || r.Op != reqs[i].Op || r.Processor != reqs[i].Processor {
			t.Fatalf("result %d = %+v out of order vs %+v", i, r, reqs[i])
		}
	}
}

// TestBatchAdmittedWhole stalls the shard and checks every request of a
// 32-request batch reaches the mailbox before the first reply is sent:
// the handler admits the batch whole instead of waiting out one request
// at a time.
func TestBatchAdmittedWhole(t *testing.T) {
	s, release := stalledServer(t, Config{Shards: 1, N: 4, T: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := batchOf(32)
	type reply struct {
		resp BatchResponse
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := (&Client{Base: ts.URL}).Batch(reqs)
		replied <- reply{resp, err}
	}()
	queued := waitFor(func() bool { return len(s.shards[0].mail) == len(reqs) })
	release()
	if !queued {
		t.Fatalf("mailbox held %d of %d requests while the shard was stalled", len(s.shards[0].mail), len(reqs))
	}
	r := <-replied
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkPrefix(t, r.resp, reqs, len(reqs))
}

// TestBatchOverloadMidBatch fills a 4-slot mailbox from one batch while
// the shard is stalled: admission stops at the first overload, the reply
// carries the admitted prefix in order with the retry hint, and the
// drain loses nothing.
func TestBatchOverloadMidBatch(t *testing.T) {
	s, release := stalledServer(t, Config{Shards: 1, Queue: 4, N: 4, T: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	go func() {
		waitFor(func() bool { return s.shards[0].rejected.Load() > 0 })
		release()
	}()
	reqs := batchOf(10)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(clientBody(t, reqs)))
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp BatchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 for a partial batch", httpResp.StatusCode)
	}
	checkPrefix(t, resp, reqs, 4)
	if resp.RetryAfterMS <= 0 || httpResp.Header.Get("Retry-After") == "" {
		t.Fatalf("partial batch without retry hint: retry_after_ms %d, Retry-After %q",
			resp.RetryAfterMS, httpResp.Header.Get("Retry-After"))
	}
	s.Drain()
	if st := s.Stats(); st.Accepted != 4 || st.Complete != 4 || st.Rejected != 1 {
		t.Fatalf("accepted/completed/rejected = %d/%d/%d, want 4/4/1", st.Accepted, st.Complete, st.Rejected)
	}
}

// BenchmarkHandleBatch drives the batch handler directly with a
// 32-request body as Client marshals it, on 2 DA shards: decoding,
// admission, service and reply encoding, without a network.
func BenchmarkHandleBatch(b *testing.B) {
	s, err := New(Config{Shards: 2, N: 8, T: 3, Engine: EngineDA})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := clientBody(b, batchOf(32))
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
