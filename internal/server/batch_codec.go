package server

import (
	"bytes"
	"math"
	"strconv"
)

// The POST /v1/batch codec without reflection. decodeBatch and
// appendBatchResponse handle only the canonical shape that json.Marshal
// and Client emit: exact lowercase keys, each at most once; ASCII
// strings that need no escaping; plain non-negative integers in range;
// costs that encoding/json prints in decimal notation. For anything else
// they report ok == false and the handler falls back to encoding/json,
// which is the reference: wherever the fast path claims an input it must
// produce exactly what encoding/json produces (FuzzBatchCodec).

// plain reports whether s can stand between JSON quotes as is and reads
// back unchanged: printable ASCII without the quote, the backslash, and
// the '<', '>' and '&' that json.Encoder escapes for HTML.
func plain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// batchDecoder scans one BatchRequest body. Any byte it does not expect
// fails the scan; the caller then hands the body to encoding/json.
type batchDecoder struct {
	b []byte
	i int
}

// decodeBatch decodes a BatchRequest body in the canonical shape. Like
// json.Decoder.Decode it reads one top-level value and ignores any
// bytes after it.
func decodeBatch(b []byte) (BatchRequest, bool) {
	d := batchDecoder{b: b}
	var body BatchRequest
	if !d.consume('{') {
		return body, false
	}
	if d.consume('}') {
		return body, true
	}
	if key, ok := d.str(); !ok || string(key) != "requests" || !d.consume(':') || !d.consume('[') {
		return body, false
	}
	// Every request is one JSON object, so the body's '}' count bounds
	// the batch length.
	body.Requests = make([]WireRequest, 0, bytes.Count(b[d.i:], []byte{'}'}))
	if !d.consume(']') {
		for {
			wr, ok := d.request()
			if !ok {
				return body, false
			}
			body.Requests = append(body.Requests, wr)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return body, false
			}
		}
	}
	return body, d.consume('}')
}

// request decodes one WireRequest object.
func (d *batchDecoder) request() (WireRequest, bool) {
	var wr WireRequest
	if !d.consume('{') {
		return wr, false
	}
	if d.consume('}') {
		return wr, true
	}
	var seen [4]bool // object, op, processor, seq: a repeated key falls back
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') {
			return wr, false
		}
		var field int
		var s []byte
		switch string(key) {
		case "object":
			field = 0
			s, ok = d.str()
			wr.Object = string(s)
		case "op":
			field = 1
			s, ok = d.str()
			wr.Op = opString(s)
		case "processor":
			field = 2
			// 18 digits cannot overflow a 64-bit int; the bound check
			// covers 32-bit platforms.
			var n uint64
			n, ok = d.uint(18)
			ok = ok && n <= math.MaxInt
			wr.Processor = int(n)
		case "seq":
			field = 3
			// 19 digits cannot overflow uint64.
			wr.Seq, ok = d.uint(19)
		default:
			return wr, false
		}
		if !ok || seen[field] {
			return wr, false
		}
		seen[field] = true
		if d.consume('}') {
			return wr, true
		}
		if !d.consume(',') {
			return wr, false
		}
	}
}

// opString returns the op as a string, without allocating for the two
// ops Client sends.
func opString(s []byte) string {
	switch string(s) {
	case "r":
		return "r"
	case "w":
		return "w"
	}
	return string(s)
}

// skipSpace skips JSON whitespace.
func (d *batchDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (d *batchDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str scans a plain quoted string and returns its bytes, which alias
// the body.
func (d *batchDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	end := bytes.IndexByte(d.b[d.i:], '"')
	if end < 0 {
		return nil, false
	}
	s := d.b[d.i : d.i+end]
	if !plain(s) {
		return nil, false
	}
	d.i += end + 1
	return s, true
}

// uint scans a non-negative JSON integer of at most maxDigits digits.
// A fraction or exponent stops the scan at a byte the caller does not
// expect, so "1e2" and "1.0" fall back like a sign or a leading zero.
func (d *batchDecoder) uint(maxDigits int) (uint64, bool) {
	d.skipSpace()
	start := d.i
	var n uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		n = n*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	if digits == 0 || digits > maxDigits || (digits > 1 && d.b[start] == '0') {
		return 0, false
	}
	return n, true
}

// appendBatchResponse appends resp as json.NewEncoder(w).Encode writes
// it, trailing newline included. It reports false, and the caller
// encodes with encoding/json instead, when a string needs escaping or a
// cost would print in exponent notation (or not at all: NaN and Inf).
func appendBatchResponse(b []byte, resp *BatchResponse) ([]byte, bool) {
	b = append(b, `{"done":`...)
	b = strconv.AppendInt(b, int64(resp.Done), 10)
	b = append(b, `,"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			r := &resp.Results[i]
			if !plain(r.Object) || !plain(r.Op) || !plain(r.Err) || !decimalCost(r.Cost) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"object":"`...)
			b = append(b, r.Object...)
			b = append(b, `","op":"`...)
			b = append(b, r.Op...)
			b = append(b, `","processor":`...)
			b = strconv.AppendInt(b, int64(r.Processor), 10)
			b = append(b, `,"cost":`...)
			b = strconv.AppendFloat(b, r.Cost, 'f', -1, 64)
			if r.Coalesced {
				b = append(b, `,"coalesced":true`...)
			}
			if r.Retransmits != 0 {
				b = append(b, `,"retransmits":`...)
				b = strconv.AppendInt(b, int64(r.Retransmits), 10)
			}
			if r.Duplicate {
				b = append(b, `,"duplicate":true`...)
			}
			if r.Err != "" {
				b = append(b, `,"err":"`...)
				b = append(b, r.Err...)
				b = append(b, '"')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.RetryAfterMS != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, resp.RetryAfterMS, 10)
	}
	if resp.Draining {
		b = append(b, `,"draining":true`...)
	}
	if resp.Unavailable {
		b = append(b, `,"unavailable":true`...)
	}
	return append(b, "}\n"...), true
}

// decimalCost reports whether encoding/json prints c as
// strconv.FormatFloat(c, 'f', -1, 64): zero, or a magnitude in
// [1e-6, 1e21).
func decimalCost(c float64) bool {
	a := math.Abs(c)
	return a == 0 || (a >= 1e-6 && a < 1e21)
}
