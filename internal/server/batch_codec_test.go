package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// clientBody is a batch body exactly as Client marshals it.
func clientBody(t testing.TB, reqs []WireRequest) []byte {
	t.Helper()
	b, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fallbackBodies are batch bodies outside the canonical shape: the fast
// decoder must leave each to encoding/json.
var fallbackBodies = []string{
	`{"requests":[{"object":"a\u0062","op":"r","processor":0}]}`, // escape
	`{"requests":[{"object":"a\n","op":"r","processor":0}]}`,
	`{"requests":[{"object":"a","op":"r","processor":0,"ſeq":3}]}`, // encoding/json folds case
	`{"requests":[{"OBJECT":"a","op":"r","processor":0}]}`,
	`{"Requests":[]}`,
	`{"requests":[{"object":"a","object":"b","op":"r","processor":0}]}`, // duplicate key
	`{"requests":[],"requests":[{"object":"a","op":"r","processor":0}]}`,
	`{"requests":null}`,
	`{"requests":[{"object":null,"op":"r","processor":0}]}`,
	`null`,
	`{"requests":[{"object":"a","op":"r","processor":0,"seq":18446744073709551615}]}`, // 20 digits
	`{"requests":[{"object":"a","op":"r","processor":0,"seq":99999999999999999999}]}`,
	`{"requests":[{"object":"a","op":"r","processor":1e2}]}`,
	`{"requests":[{"object":"a","op":"r","processor":1.0}]}`,
	`{"requests":[{"object":"a","op":"r","processor":-0}]}`,
	`{"requests":[{"object":"a","op":"r","processor":-1}]}`,
	`{"requests":[{"object":"a","op":"r","processor":01}]}`,
	`{"requests":[{"object":"<a&b>","op":"r","processor":0}]}`,
	`{"requests":[{"object":"é","op":"r","processor":0}]}`,
	`{"requests":[{"object":"a","op":"r","processor":0,"extra":1}]}`,
	`{"requests":[{"object":"a","op":"r","processor":0},]}`,
	`{"requests":[{"object":"a","op":"r","processor":0}]`,
	`[]`,
	``,
}

// TestBatchCodecPaths pins which inputs each fast path claims: Client's
// output takes the fast decoder and its replies the fast encoder, while
// every non-canonical input falls back to encoding/json. (Where a fast
// path claims an input, FuzzBatchCodec checks it agrees with
// encoding/json.)
func TestBatchCodecPaths(t *testing.T) {
	reqs := []WireRequest{
		{Object: "obj-1", Op: "r", Processor: 0},
		{Object: "obj-2", Op: "w", Processor: 7, Seq: 1<<63 + 5},
		{Object: "x y/z", Op: "read", Processor: 3, Seq: 1},
	}
	body := clientBody(t, reqs)
	got, ok := decodeBatch(body)
	if !ok || !reflect.DeepEqual(got.Requests, reqs) {
		t.Fatalf("Client body %s: fast decode = %+v, %t", body, got, ok)
	}
	// Bytes after the top-level value are ignored, as json.Decoder does.
	if got, ok := decodeBatch(append(body, "garbage"...)); !ok || !reflect.DeepEqual(got.Requests, reqs) {
		t.Fatalf("trailing bytes: fast decode = %+v, %t", got, ok)
	}
	for _, in := range fallbackBodies {
		if got, ok := decodeBatch([]byte(in)); ok {
			t.Errorf("fast decoder claimed non-canonical body %s: %+v", in, got)
		}
	}

	resp := BatchResponse{Done: 2, RetryAfterMS: 10, Results: []WireResult{
		{Object: "obj-1", Op: "r", Processor: 0, Cost: 1.25, Coalesced: true, Retransmits: 2},
		{Object: "obj-2", Op: "w", Processor: 7, Cost: 0, Duplicate: true, Err: "netsim: unreachable"},
	}}
	if _, ok := appendBatchResponse(nil, &resp); !ok {
		t.Fatalf("fast encoder declined a canonical reply %+v", resp)
	}
	for _, r := range []WireResult{
		{Object: "<a&b>", Op: "r"},
		{Object: "a", Op: "r", Cost: 1e-7},
		{Object: "a", Op: "r", Cost: 1e21},
		{Object: "a", Op: "r", Cost: math.NaN()},
		{Object: "a", Op: "r", Err: "quote \" inside"},
	} {
		if out, ok := appendBatchResponse(nil, &BatchResponse{Done: 1, Results: []WireResult{r}}); ok {
			t.Errorf("fast encoder claimed %+v: %s", r, out)
		}
	}
}

// FuzzBatchCodec is a differential test against encoding/json: wherever
// the fast decoder claims a body, its result equals json.Decoder's and
// json.Decoder reports no error; wherever the fast encoder claims a
// reply, its bytes equal json.NewEncoder(w).Encode's.
func FuzzBatchCodec(f *testing.F) {
	f.Add(clientBody(f, []WireRequest{
		{Object: "obj-1", Op: "r", Processor: 0, Seq: 1},
		{Object: "obj-2", Op: "w", Processor: 7, Seq: 12},
	}), 0.25, int64(0))
	f.Add(clientBody(f, []WireRequest{{Object: "a", Op: "r"}}), 1e-7, int64(250))
	f.Add(clientBody(f, nil), 0.0, int64(-3))
	f.Add([]byte(`{"requests":[]} trailing`), math.Copysign(0, -1), int64(1))
	f.Add([]byte(` { "requests" : [ { "seq" : 3 , "op" : "w" , "object" : "o" , "processor" : 2 } ] } `), 1e21, int64(0))
	for _, in := range fallbackBodies {
		f.Add([]byte(in), 1.5, int64(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, cost float64, retryMS int64) {
		var want BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if got, ok := decodeBatch(body); ok {
			if wantErr != nil {
				t.Fatalf("fast decoder claimed %q, which encoding/json rejects: %v", body, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast decode of %q = %#v, encoding/json = %#v", body, got, want)
			}
		}
		if wantErr != nil {
			return
		}
		// A reply echoing the batch, with fuzzed costs and flags.
		resp := BatchResponse{Done: len(want.Requests), RetryAfterMS: retryMS,
			Draining: retryMS%2 == 0, Unavailable: retryMS%3 == 0}
		if want.Requests != nil {
			resp.Results = make([]WireResult, 0, len(want.Requests))
		}
		for i, wr := range want.Requests {
			resp.Results = append(resp.Results, WireResult{
				Object: wr.Object, Op: wr.Op, Processor: wr.Processor,
				Cost: cost * float64(i+1), Coalesced: wr.Seq%2 == 1, Retransmits: int(wr.Seq % 3),
				Duplicate: wr.Seq%5 == 0, Err: wr.Op,
			})
		}
		var enc bytes.Buffer
		encErr := json.NewEncoder(&enc).Encode(resp)
		if out, ok := appendBatchResponse(nil, &resp); ok {
			if encErr != nil {
				t.Fatalf("fast encoder claimed %+v, which encoding/json rejects: %v", resp, encErr)
			}
			if !bytes.Equal(out, enc.Bytes()) {
				t.Fatalf("fast encoding\n  %s\nencoding/json\n  %s", out, enc.Bytes())
			}
		}
	})
}
