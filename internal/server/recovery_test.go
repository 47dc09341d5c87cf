package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objalloc/internal/adaptive"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/tracing"
)

// driveRange is drive with an explicit per-object request range
// [from, to): the request at index i of an object's stream is identical
// whether issued in one run or split across a shutdown/recover
// boundary, which is what the continuation tests rely on.
func driveRange(t *testing.T, s *Server, objects, from, to, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < objects; o += workers {
				name := fmt.Sprintf("obj-%d", o)
				for i := from; i < to; i++ {
					var q model.Request
					if (o+i)%3 == 0 {
						q = model.W(model.ProcessorID((o + i) % s.cfg.N))
					} else {
						q = model.R(model.ProcessorID((o + i) % s.cfg.N))
					}
					if _, err := s.Do(name, q); err != nil {
						var ov *Overloaded
						if errors.As(err, &ov) {
							i-- // retry: per-object order still intact
							continue
						}
						var unreachable netsim.Unreachable
						if errors.As(err, &unreachable) {
							continue // consumed, just failed
						}
						t.Errorf("Do(%s): %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// detStats renders the deterministic accounting subset — everything the
// determinism contract pins down, excluding scheduling-dependent fields
// (rejected, deduped, queue depths, rounds, restarts).
func detStats(st Stats) string {
	return fmt.Sprintf("completed=%d reads=%d writes=%d coalesced=%d retrans=%d unreach=%d dups=%d objects=%d counts=%v cost=%.6f",
		st.Complete, st.Reads, st.Writes, st.Coalesce, st.Retrans, st.Unreach, st.Dups,
		st.Objects, st.Counts, st.Cost)
}

// recoveryConfig is the battery config the recovery tests share: the
// adaptive engine (so controller state must round-trip), loss and delay
// faults (so fault-stream positions must round-trip), and a small
// checkpoint cadence (so replay crosses checkpoint boundaries).
func recoveryConfig(shards int, dir string) Config {
	aspec, err := adaptive.ParseSpec("adaptive:window=8,hysteresis=2")
	if err != nil {
		panic(err)
	}
	return Config{
		Shards: shards, N: 6, T: 2,
		Engine: EngineAdaptive, Adaptive: aspec,
		Seed:            11,
		Faults:          &netsim.FaultPlan{Seed: 5, Loss: 0.1, Delay: 0.2, DelayMax: 3},
		Retry:           netsim.RetryPolicy{MaxAttempts: 4},
		Journal:         dir,
		CheckpointEvery: 8,
	}
}

// A run split across a shutdown and a -recover restart must produce
// accounting byte-identical to the same workload run uninterrupted:
// journal replay restores every object's scheme, the adaptive
// controller's window, and the fault-stream positions.
func TestRecoverContinuesIdentically(t *testing.T) {
	const objects, perObject, workers = 8, 20, 2

	full, err := New(recoveryConfig(2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, full, objects, 0, perObject, workers)
	full.Drain()
	want := detStats(full.Stats())

	dir := t.TempDir()
	first, err := New(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, first, objects, 0, perObject/2, workers)
	first.Drain()

	cfg := recoveryConfig(2, dir)
	cfg.Recover = true
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.Complete != uint64(objects*perObject/2) {
		t.Fatalf("recovered server reports %d completed, want %d replayed", st.Complete, objects*perObject/2)
	}
	driveRange(t, second, objects, perObject/2, perObject, workers)
	second.Drain()
	if got := detStats(second.Stats()); got != want {
		t.Fatalf("recovered run diverges from uninterrupted run:\n  got  %s\n  want %s", got, want)
	}
}

// ReplayDir reconstructs a drained run's deterministic accounting from
// the journals alone.
func TestReplayDirMatchesStats(t *testing.T) {
	dir := t.TempDir()
	s, err := New(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, 8, 0, 15, 2)
	s.Drain()
	want := detStats(s.Stats())

	st, err := ReplayDir(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := detStats(st); got != want {
		t.Fatalf("replay diverges from live stats:\n  got  %s\n  want %s", got, want)
	}
}

// A torn final line — the partial write a crash mid-commit leaves — is
// discarded by replay, both as a raw truncated tail and as an
// unparseable newline-terminated line.
func TestTornFinalLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := New(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, 8, 0, 10, 2)
	s.Drain()
	want := detStats(s.Stats())

	for i, torn := range []string{
		`{"object":"obj-0","op":"r","p":`, // no trailing newline
		"torn garbage with newline\n",
	} {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	st, err := ReplayDir(recoveryConfig(2, dir))
	if err != nil {
		t.Fatalf("replay with torn final lines: %v", err)
	}
	if got := detStats(st); got != want {
		t.Fatalf("torn-tail replay diverges:\n  got  %s\n  want %s", got, want)
	}

	// A recovering server truncates the torn tail away and continues.
	cfg := recoveryConfig(2, dir)
	cfg.Recover = true
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	if got := detStats(s2.Stats()); got != want {
		t.Fatalf("recovered-from-torn stats diverge:\n  got  %s\n  want %s", got, want)
	}
}

// Corruption in the middle of a journal — not a torn tail — must fail
// replay loudly rather than silently dropping records.
func TestCorruptMiddleFailsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := New(recoveryConfig(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, 4, 0, 10, 1)
	s.Drain()

	path := filepath.Join(dir, "shard-0.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	corrupt := strings.Join(lines[:len(lines)-2], "") + "corrupt\n" + lines[len(lines)-2] + lines[len(lines)-1]
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(recoveryConfig(1, dir)); err == nil {
		t.Fatal("replay accepted a journal with mid-file corruption")
	}
}

// A record's error outcome is part of what replay verifies: a record
// carrying an error for a request that replays as delivered (and, the
// other way round, an unerrored record that replays as unreachable) is
// a config mismatch or corruption, never silently accepted.
func TestReplayChecksErrorOutcome(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 1, N: 4, T: 2, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Do("a", model.R(model.ProcessorID(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	path := filepath.Join(dir, "shard-0.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(Config{Shards: 1, N: 4, T: 2, Journal: dir}); err != nil {
		t.Fatalf("untouched journal: %v", err)
	}
	first, rest, _ := strings.Cut(string(b), "\n")
	forged := strings.TrimSuffix(first, "}") + `,"err":"forged"}` + "\n" + rest
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(Config{Shards: 1, N: 4, T: 2, Journal: dir}); err == nil || !strings.Contains(err.Error(), "forged") {
		t.Fatalf("replay of a delivered request recorded with an error: err = %v, want a mismatch", err)
	}

	// Total loss: every request replays as unreachable, so an unerrored
	// record must be refused.
	lossy := Config{Shards: 1, N: 4, T: 2, Journal: dir, Faults: &netsim.FaultPlan{Seed: 1, Loss: 1}, Retry: netsim.RetryPolicy{MaxAttempts: 2}}
	if err := os.WriteFile(path, []byte(`{"object":"a","op":"r","p":0,"cost_milli":500,"retransmits":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(lossy); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("replay of an unerrored record for a request it draws as unreachable: err = %v, want a mismatch", err)
	}
}

// The journals written at different shard counts replay to the same
// aggregate accounting: replay preserves the shard-count-independence
// of the determinism contract.
func TestReplayDeterminismAcrossShardCounts(t *testing.T) {
	var want string
	for i, shards := range []int{1, 8} {
		dir := t.TempDir()
		s, err := New(recoveryConfig(shards, dir))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, s, 12, 0, 15, 4)
		s.Drain()
		st, err := ReplayDir(recoveryConfig(shards, dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := detStats(st); i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("replay at %d shards diverges from 1 shard:\n  got  %s\n  want %s", shards, got, want)
		}
	}
}

// An injected panic in every shard loop must be supervised back to
// healthy: no accepted request is lost, the restart is counted, and the
// accounting still matches a panic-free same-seed run.
func TestShardPanicRecovery(t *testing.T) {
	const objects, perObject, workers = 8, 20, 4

	clean, err := New(recoveryConfig(2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, clean, objects, 0, perObject, workers)
	clean.Drain()
	want := detStats(clean.Stats())

	cfg := recoveryConfig(2, t.TempDir())
	cfg.PanicAfter = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, objects, 0, perObject, workers)
	s.Drain()
	st := s.Stats()
	if st.Accepted != st.Complete {
		t.Fatalf("panic run lost requests: accepted %d, completed %d", st.Accepted, st.Complete)
	}
	var restarts uint64
	for _, ss := range st.PerShard {
		restarts += ss.Restarts
		if ss.State != "" {
			t.Fatalf("shard %d ended in state %q, want healthy", ss.Shard, ss.State)
		}
	}
	if restarts == 0 {
		t.Fatal("no supervised restarts recorded — the injected panic never fired")
	}
	if got := detStats(st); got != want {
		t.Fatalf("post-panic accounting diverges from panic-free run:\n  got  %s\n  want %s", got, want)
	}
}

// PanicAfter counts each serviced request once, however long an
// injected delay it draws: with every request delay-faulted, the fifth
// request trips the panic, not an earlier one counted twice.
func TestPanicAfterCountsEachRequestOnce(t *testing.T) {
	s, err := New(Config{
		Shards: 1, N: 4, T: 2, Seed: 3,
		Faults:     &netsim.FaultPlan{Seed: 3, Delay: 1.0, DelayMax: 2},
		PanicAfter: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 5; i++ {
		if _, err := s.Do("obj", model.R(model.ProcessorID(i%4))); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := uint64(0)
		if i == 5 {
			want = 1
		}
		if got := s.Stats().PerShard[0].Restarts; got != want {
			t.Fatalf("after request %d: %d restarts, want %d", i, got, want)
		}
	}
}

// A panic in the middle of a round must carry the round's staged
// completions back in front of its unprocessed remainder: one object's
// requests fill the round, so any other order bills them differently.
func TestPanicMidRoundKeepsObjectOrder(t *testing.T) {
	reqs := []model.Request{model.W(0), model.R(1), model.R(2), model.W(3), model.R(0), model.R(1), model.W(2), model.R(3)}
	run := func(panicAfter int64) ([]Result, Stats) {
		cfg := Config{
			Shards: 1, N: 4, T: 2, Seed: 3,
			Faults:     &netsim.FaultPlan{Seed: 5, Loss: 0.2, Delay: 0.3, DelayMax: 3},
			Retry:      netsim.RetryPolicy{MaxAttempts: 4},
			Journal:    t.TempDir(),
			PanicAfter: panicAfter,
		}
		s, release := stalledServer(t, cfg)
		tasks := make([]*task, len(reqs))
		for i, q := range reqs {
			var err error
			if tasks[i], err = s.admit("obj", q, tracing.SpanContext{}, 0); err != nil {
				t.Fatal(err)
			}
		}
		release() // the whole stream is one round
		out := make([]Result, len(tasks))
		for i, tk := range tasks {
			out[i], _ = s.await(tk)
		}
		s.Drain()
		return out, s.Stats()
	}
	want, clean := run(0)
	got, st := run(4)
	if st.PerShard[0].Restarts != 1 {
		t.Fatalf("%d restarts, want the chaos panic's 1", st.PerShard[0].Restarts)
	}
	for i := range want {
		if got[i].Cost != want[i].Cost || got[i].Retransmits != want[i].Retransmits {
			t.Errorf("request %d: cost %v retransmits %d, clean run %v and %d", i, got[i].Cost, got[i].Retransmits, want[i].Cost, want[i].Retransmits)
		}
	}
	if g, w := detStats(st), detStats(clean); g != w {
		t.Fatalf("accounting diverges from the clean run:\n  got   %s\n  clean %s", g, w)
	}
}

// Per-object sequence numbers make retries idempotent: a seq below the
// serviced horizon is answered as a zero-cost duplicate, in-process and
// over the HTTP wire.
func TestSeqDedup(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.do("x", model.R(0), tracing.SpanContext{}, 1)
	if err != nil || r1.Duplicate {
		t.Fatalf("first seq-1 request: %+v, %v", r1, err)
	}
	r2, err := s.do("x", model.R(0), tracing.SpanContext{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicate || r2.Cost != 0 {
		t.Fatalf("resent seq-1 request not deduplicated: %+v", r2)
	}
	r3, err := s.do("x", model.W(1), tracing.SpanContext{}, 2)
	if err != nil || r3.Duplicate {
		t.Fatalf("seq-2 request: %+v, %v", r3, err)
	}
	s.Drain()
	st := s.Stats()
	if st.Accepted != 2 || st.Complete != 2 || st.Deduped != 1 {
		t.Fatalf("accepted/completed/deduped = %d/%d/%d, want 2/2/1", st.Accepted, st.Complete, st.Deduped)
	}
}

// A panic inside the engine leaves the request uncounted and its seq
// below the dedup horizon: the supervisor's retry of the carried request
// services it instead of answering it as an already-serviced duplicate.
func TestEnginePanicRetryIsServiced(t *testing.T) {
	var fired atomic.Bool
	factory := func(initial model.Set, tt int) (dom.Algorithm, error) {
		alg, err := dom.DynamicFactory(initial, tt)
		return panicOnce{Algorithm: alg, fired: &fired}, err
	}
	s, err := New(Config{Shards: 1, N: 4, T: 2, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.do("x", model.R(0), tracing.SpanContext{}, 1)
	if err != nil || r.Duplicate || !fired.Load() {
		t.Fatalf("retried request: %+v, %v (panic fired: %t)", r, err, fired.Load())
	}
	s.Drain()
	if st := s.Stats(); st.Accepted != 1 || st.Complete != 1 || st.Deduped != 0 {
		t.Fatalf("accepted/completed/deduped = %d/%d/%d, want 1/1/0", st.Accepted, st.Complete, st.Deduped)
	}
}

// panicOnce is an engine whose first step, across all its instances,
// panics.
type panicOnce struct {
	dom.Algorithm
	fired *atomic.Bool
}

func (p panicOnce) Step(q model.Request) model.Step {
	if p.fired.CompareAndSwap(false, true) {
		panic("injected engine panic")
	}
	return p.Algorithm.Step(q)
}

// TestSeqDedupOverHTTP sends a seq-carrying stream through /v1/batch
// twice — a seq resent inside a batch, then the whole stream resent —
// and the same stream through do one request at a time, under delay
// and loss faults, while the journal group-commits each round. Both ways must answer every
// request alike and end with identical stats and per-object accounting:
// admitting a batch whole changes the scheduling, not the outcome.
func TestSeqDedupOverHTTP(t *testing.T) {
	config := func() Config {
		return Config{
			Shards: 2, N: 4, T: 2, Seed: 3,
			Faults:  &netsim.FaultPlan{Seed: 9, Loss: 0.1, Delay: 0.3, DelayMax: 3},
			Retry:   netsim.RetryPolicy{MaxAttempts: 4},
			Journal: t.TempDir(),
		}
	}
	var reqs []WireRequest
	next := map[string]uint64{}
	for i := 0; i < 96; i++ {
		obj := fmt.Sprintf("o%d", i%6)
		op := "r"
		if i%4 == 1 {
			op = "w"
		}
		next[obj]++
		reqs = append(reqs, WireRequest{Object: obj, Op: op, Processor: i % 4, Seq: next[obj]})
		if i%10 == 7 {
			reqs = append(reqs, reqs[len(reqs)-1]) // resent within the batch
		}
	}
	resends := len(reqs) - 96

	viaHTTP, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(viaHTTP.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	var wire []WireResult
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(reqs); i += 32 {
			batch := reqs[i:min(i+32, len(reqs))]
			resp, err := c.Batch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Done != len(batch) {
				t.Fatalf("batch done = %d, want %d", resp.Done, len(batch))
			}
			wire = append(wire, resp.Results...)
		}
	}
	for i, r := range wire {
		if fresh := i < len(reqs) && (i == 0 || reqs[i] != reqs[i-1]); r.Duplicate == fresh {
			t.Fatalf("result %d (%+v): duplicate = %t, want %t", i, reqs[i%len(reqs)], r.Duplicate, !fresh)
		}
		if r.Duplicate && r.Cost != 0 {
			t.Fatalf("duplicate billed: %+v", r)
		}
	}
	viaHTTP.Drain()

	viaDo, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, wr := range reqs {
			q, err := viaDo.wireRequest(wr)
			if err != nil {
				t.Fatal(err)
			}
			r, err := viaDo.do(wr.Object, q, tracing.SpanContext{}, wr.Seq)
			if err != nil && r.Err == nil {
				t.Fatal(err)
			}
			w := wire[pass*len(reqs)+i]
			if r.Cost != w.Cost || r.Duplicate != w.Duplicate || r.Retransmits != w.Retransmits || (r.Err != nil) != (w.Err != "") {
				t.Fatalf("request %d (%+v): do %+v, batch %+v", i, wr, r, w)
			}
		}
	}
	viaDo.Drain()

	got, want := viaHTTP.Stats(), viaDo.Stats()
	if detStats(got) != detStats(want) || got.Deduped != want.Deduped {
		t.Fatalf("batch stats\n  %s deduped=%d\ndo stats\n  %s deduped=%d",
			detStats(got), got.Deduped, detStats(want), want.Deduped)
	}
	if got.Accepted != got.Complete || got.Deduped != uint64(len(reqs)+resends) {
		t.Fatalf("accepted/completed/deduped = %d/%d/%d, want equal accept/complete and %d deduped",
			got.Accepted, got.Complete, got.Deduped, len(reqs)+resends)
	}
	if !reflect.DeepEqual(viaHTTP.ObjectStats(), viaDo.ObjectStats()) {
		t.Fatalf("per-object stats differ:\n  batch %+v\n  do    %+v", viaHTTP.ObjectStats(), viaDo.ObjectStats())
	}
}

// BatchAllCtx gives up at the context deadline, reporting the
// unserviced tail, when the server never comes back.
func TestBatchAllCtxDeadline(t *testing.T) {
	c := &Client{Base: "http://127.0.0.1:1", Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, []WireRequest{{Object: "a", Op: "r"}})
	if err == nil {
		t.Fatal("BatchAllCtx against a dead address returned nil error")
	}
	if !strings.Contains(err.Error(), "unserviced") {
		t.Fatalf("error %q does not report the unserviced tail", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("BatchAllCtx ran far past its deadline: %s", time.Since(start))
	}
}
