// Crash recovery: the journal record formats and the deterministic
// replay that rebuilds a shard's exact state from its journal.
//
// Each shard journal is a JSONL file of request records (reqRecord)
// interleaved with periodic checkpoint records (ckptRecord, one line
// prefixed {"t":"ckpt"...}). Replay restores the latest durable
// checkpoint into a fresh svcState, then drives each tail record through
// the live service step itself (svcState.delay, then svcState.serve;
// see step.go). The live shard serves every request in the round it
// arrives, so the journal holds each object's records in service order
// and replay re-derives every fault-stream draw, retransmission,
// coalescing decision and counter with the code that made it: the
// rebuilt allocation schemes, adaptive-controller windows, fault
// streams, coalescing tables and accounting are bit-identical to the
// crashed shard's state as of its last committed round. A record whose
// replayed outcome (cost, retransmissions, coalescing, error or not)
// disagrees with the recorded one fails the replay loudly (config
// mismatch or corrupt journal) instead of silently diverging.
//
// Torn tails: a SIGKILL can leave a partial final write. Only complete,
// parseable lines are replayed; the torn tail is truncated before the
// journal is reopened for appending. The requests in the torn tail were
// never acked (replies are sent only after the commit's fsync returns),
// so clients retry them; retries of requests that DID reach the durable
// prefix are answered idempotently via the per-object client sequence
// horizon rebuilt here.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
)

// reqRecord is one completed request in the journal. Field order
// matters only for the first key: records start {"object": while
// checkpoints start {"t": — the replay scanner tells them apart by
// that prefix without a full parse.
type reqRecord struct {
	Object    string `json:"object"`
	Op        string `json:"op"`
	P         int    `json:"p"`
	Seq       uint64 `json:"seq,omitempty"`
	CostMilli int64  `json:"cost_milli"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Retrans   int    `json:"retransmits,omitempty"`
	Err       string `json:"err,omitempty"`
}

// ckptTag is the discriminator value of a checkpoint line's leading
// "t" field.
const ckptTag = "ckpt"

// ckptPrefix distinguishes checkpoint lines; reqRecord lines start
// with {"object":.
var ckptPrefix = []byte(`{"t":`)

// ckptRecord is a shard checkpoint: the complete per-object engine
// state plus every piece of loop-confined shard state replay would
// otherwise have to reconstruct from the journal's full history.
// Checkpoints are taken between rounds, after the round's records are
// committed, so the embedded fault-stream states account exactly for
// the records preceding the checkpoint.
type ckptRecord struct {
	T        string                    `json:"t"` // ckptTag
	Objects  []multiobject.ObjectState `json:"objects"`
	Next     map[string]uint64         `json:"next,omitempty"`
	Streams  map[string]uint64         `json:"streams,omitempty"`
	Fresh    map[string]uint64         `json:"fresh,omitempty"`
	TraceSeq map[string]uint64         `json:"trace_seq,omitempty"`
	Extra    cost.Counts               `json:"extra,omitzero"`
	tally
}

// replayJournal rebuilds one shard's state from its journal file into
// st, which must be freshly initialised, and returns the length of the
// valid prefix (everything before a torn final line). A missing file
// replays to the empty state, so -recover works on first boot.
func replayJournal(path string, st *svcState) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("server: journal %s: %w", path, err)
	}

	// Cut complete lines; bytes after the last newline are a torn tail.
	var recs [][]byte
	var ends []int64
	off := int64(0)
	for off < int64(len(data)) {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			break
		}
		recs = append(recs, data[off:off+int64(i)])
		off += int64(i) + 1
		ends = append(ends, off)
	}

	// Find the last parseable checkpoint; a torn or unparseable FINAL
	// line (checkpoint or record) is dropped, an unparseable middle
	// line is corruption.
	ckptIdx := -1
	var ckpt *ckptRecord
	for i := len(recs) - 1; i >= 0; i-- {
		if !bytes.HasPrefix(recs[i], ckptPrefix) {
			continue
		}
		var c ckptRecord
		if err := json.Unmarshal(recs[i], &c); err != nil || c.T != ckptTag {
			if i == len(recs)-1 {
				recs = recs[:i]
				ends = ends[:i]
				continue
			}
			return 0, fmt.Errorf("server: journal %s: corrupt checkpoint at line %d", path, i+1)
		}
		ckptIdx, ckpt = i, &c
		break
	}
	if ckpt != nil {
		if err := st.restoreCheckpoint(ckpt); err != nil {
			return 0, fmt.Errorf("server: journal %s: %w", path, err)
		}
	}

	validLen := int64(0)
	if len(ends) > 0 {
		validLen = ends[len(ends)-1]
	}
	for i := ckptIdx + 1; i < len(recs); i++ {
		if bytes.HasPrefix(recs[i], ckptPrefix) {
			// An older checkpoint between the last one and the tail
			// cannot occur; a later one was torn and skipped above.
			continue
		}
		var rec reqRecord
		if err := json.Unmarshal(recs[i], &rec); err != nil {
			if i == len(recs)-1 {
				// Torn final record line: drop it, shorten the prefix.
				validLen = ends[i] - int64(len(recs[i])) - 1
				break
			}
			return 0, fmt.Errorf("server: journal %s: corrupt record at line %d: %v", path, i+1, err)
		}
		if err := st.replay(&rec); err != nil {
			return 0, fmt.Errorf("server: journal %s: line %d: %w", path, i+1, err)
		}
	}
	return validLen, nil
}

func (st *svcState) restoreCheckpoint(c *ckptRecord) error {
	if err := st.be.restore(c.Objects); err != nil {
		return err
	}
	for obj, n := range c.Next {
		st.next[obj] = n
	}
	for obj, v := range c.Streams {
		vv := v
		st.streams[obj] = &vv
	}
	if st.fresh != nil {
		for obj, s := range c.Fresh {
			st.fresh[obj] = model.Set(s)
		}
	}
	if st.seq != nil {
		for obj, n := range c.TraceSeq {
			st.seq[obj] = n
		}
	}
	st.extra = c.Extra
	st.store(c.tally)
	return nil
}

// replay re-services one journaled record through the live step — the
// delay draw (which moves no cost), then serve —
// and checks the outcome against the one the live shard recorded.
func (st *svcState) replay(rec *reqRecord) error {
	q, ok := parseOp(rec.Op)
	if !ok {
		return fmt.Errorf("bad op %q", rec.Op)
	}
	if rec.P < 0 || rec.P >= st.cfg.N {
		// Admission validates this bound on the live path; replay must
		// not trust journal bytes it did not write.
		return fmt.Errorf("processor %d outside [0,%d)", rec.P, st.cfg.N)
	}
	q.Processor = model.ProcessorID(rec.P)
	if st.seq != nil {
		st.seq[rec.Object]++
	}
	st.delay(rec.Object)
	r, _ := st.serve(rec.Object, q, rec.Seq)
	if c := milli(r.Cost); c != rec.CostMilli || r.Retransmits != rec.Retrans || r.Coalesced != rec.Coalesced || (r.Err != nil) != (rec.Err != "") {
		return fmt.Errorf("record %s/%s/p%d replays to cost=%d retransmits=%d coalesced=%t err=%v, recorded cost=%d retransmits=%d coalesced=%t err=%q (config mismatch or corrupt journal)",
			rec.Object, rec.Op, rec.P, c, r.Retransmits, r.Coalesced, r.Err, rec.CostMilli, rec.Retrans, rec.Coalesced, rec.Err)
	}
	return nil
}

// ReplayDir rebuilds the whole service's final accounting from a
// journal directory alone, without starting a server: every shard
// journal is replayed and the results are aggregated into the same
// Stats a drained server reports (Final set; scheduling-dependent
// fields — rejected, deduped, rounds, queue gauges — are zero). The
// config must match the one the journals were written under: same
// engine, model, seed, fault plan, coalescing and shard count.
func ReplayDir(cfg Config) (Stats, error) {
	if err := cfg.Normalize(); err != nil {
		return Stats{}, err
	}
	if cfg.Journal == "" {
		return Stats{}, fmt.Errorf("server: ReplayDir requires Config.Journal")
	}
	st := Stats{Engine: cfg.Engine.String(), Shards: cfg.Shards, Draining: true, Final: true}
	var counts cost.Counts
	for i := 0; i < cfg.Shards; i++ {
		plan := cfg.Faults
		if cfg.ShardFaults != nil {
			plan = cfg.ShardFaults(i)
		}
		var rs svcState
		if err := rs.init(&cfg, plan); err != nil {
			return Stats{}, err
		}
		if _, err := replayJournal(filepath.Join(cfg.Journal, fmt.Sprintf("shard-%d.jsonl", i)), &rs); err != nil {
			return Stats{}, err
		}
		t := rs.load()
		t.Deduped = 0 // scheduling-dependent: it counts client retries
		ss := ShardStats{Shard: i, Accepted: t.Completed, Complete: t.Completed}
		st.Accepted += t.Completed
		st.addTally(t)
		st.Objects += rs.be.objects()
		counts = counts.Add(rs.be.counts())
		counts = counts.Add(rs.extra)
		st.PerShard = append(st.PerShard, ss)
	}
	st.Counts = counts
	st.Cost = counts.Price(cfg.Model)
	return st, nil
}
