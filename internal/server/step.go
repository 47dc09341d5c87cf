package server

import (
	"sync/atomic"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/splitmix"
)

// svcState is a shard's deterministic service state: everything journal
// replay must rebuild exactly. The live shard embeds one and replay
// builds one, and both drive it through the same step (delay, serve), so
// a replayed record is re-derived by the very code that produced it.
type svcState struct {
	cfg *Config
	// faults is the message-fault plan drawn from per-object streams;
	// nil under EngineHA, whose backend executes the plan on its real
	// network instead.
	faults  *netsim.FaultPlan
	be      backend
	fresh   map[string]model.Set // processors holding a current copy (coalescing); nil = off
	streams map[string]*uint64   // per-object fault stream states
	next    map[string]uint64    // per-object next expected client seq (wire dedup)
	seq     map[string]uint64    // per-object trace sequence numbers; nil when tracing is off
	extra   cost.Counts          // retransmission billing (control messages)
	counters
}

// init (re)builds an empty service state over a fresh engine. Counters
// are reset through their atomics: Stats may be reading them.
func (st *svcState) init(cfg *Config, plan *netsim.FaultPlan) error {
	if cfg.Engine == EngineHA {
		st.be = newHABackend(cfg, plan)
		plan = nil
	} else {
		be, err := newDirectoryBackend(cfg)
		if err != nil {
			return err
		}
		st.be = be
	}
	st.cfg, st.faults = cfg, plan
	st.fresh = nil
	if cfg.coalesce {
		st.fresh = make(map[string]model.Set)
	}
	st.streams = make(map[string]*uint64)
	st.next = make(map[string]uint64)
	st.seq = nil
	if cfg.Trace.Enabled() {
		st.seq = make(map[string]uint64)
	}
	st.extra = cost.Counts{}
	st.store(tally{})
	return nil
}

// stream returns the object's fault stream state, seeding it on first
// touch from (plan seed ⊕ config seed, object hash) — a function of the
// object alone, never of the shard or the batch, so fault outcomes are
// identical at any shard count. Nil when no fault plan is active.
func (st *svcState) stream(object string) *uint64 {
	if st.faults == nil || !st.faults.Active() {
		return nil
	}
	s, ok := st.streams[object]
	if !ok {
		v := (st.faults.Seed^uint64(st.cfg.Seed))*splitmix.Golden ^ splitmix.FNV64a(object)
		s = &v
		splitmix.Next(s) // burn one draw to decorrelate nearby seeds
		st.streams[object] = s
	}
	return s
}

// delay draws the request's delay fault: the number of virtual rounds
// of delay, or 0. It is drawn once per request, before serve, so the
// object's fault stream stays in step between live service and replay.
// The directory engines bill each object from its own request order
// alone, so the delay moves no cost: the request is served at once and
// the draw is only reported (the task's holds, the span's Holds field).
func (st *svcState) delay(object string) int {
	s := st.stream(object)
	if s == nil || st.faults.Delay <= 0 || splitmix.Float01(s) >= st.faults.Delay {
		return 0
	}
	return 1 + int(splitmix.Next(s)%uint64(max(st.faults.DelayMax, 1)))
}

// serve services one delivered request and returns the outcome the
// shard journals and replies with. The request counts as completed, and
// the dedup horizon moves past its seq, only once it has been serviced:
// a panic inside the engine leaves both untouched, so the supervisor's
// retry of the carried request is serviced, not answered as a duplicate.
func (st *svcState) serve(object string, q model.Request, seq uint64) (Result, applied) {
	r, a := st.deliver(object, q)
	if seq != 0 && seq >= st.next[object] {
		st.next[object] = seq + 1
	}
	st.completed.Add(1)
	return r, a
}

// deliver runs the loss draws under the retry discipline, the
// duplication draw, then coalescing or the engine.
func (st *svcState) deliver(object string, q model.Request) (Result, applied) {
	r := Result{Object: object}
	if s := st.stream(object); s != nil {
		plan := st.faults
		if loss := plan.Loss; loss > 0 {
			attempts := st.cfg.Retry.Attempts()
			if st.cfg.Retry.Disabled {
				attempts = 1
			}
			delivered := false
			for a := 0; a < attempts; a++ {
				if splitmix.Float01(s) < loss {
					r.Retransmits++
				} else {
					delivered = true
					break
				}
			}
			// Every lost attempt was a control message on the wire.
			st.extra.Control += r.Retransmits
			r.Cost = float64(r.Retransmits) * st.cfg.Model.CC
			st.retrans.Add(uint64(r.Retransmits))
			if !delivered {
				st.unreach.Add(1)
				r.Err = netsim.Unreachable{Peer: q.Processor}
				return r, applied{}
			}
		}
		if plan.Dup > 0 && splitmix.Float01(s) < plan.Dup {
			st.dups.Add(1)
		}
	}
	if st.fresh != nil && q.IsRead() && st.fresh[object].Contains(q.Processor) {
		// Coalesced: this processor already holds a current copy, the
		// read is local and free under the mobile model.
		st.coalesced.Add(1)
		st.reads.Add(1)
		r.Coalesced = true
		return r, applied{}
	}
	a, err := st.be.apply(object, q)
	if st.fresh != nil && err == nil {
		if q.IsRead() {
			// The saving read installed a copy at the reader.
			st.fresh[object] = st.fresh[object].Add(q.Processor)
		} else {
			// A write invalidates every remote copy.
			delete(st.fresh, object)
		}
	}
	if q.IsRead() {
		st.reads.Add(1)
	} else {
		st.writes.Add(1)
	}
	r.Cost += a.cost
	r.Err = err
	return r, a
}

// counters are a shard's deterministic request counters, read
// concurrently by Stats.
type counters struct {
	completed, reads, writes, coalesced atomic.Uint64
	retrans, unreach, dups, deduped     atomic.Uint64
}

// tally is a plain snapshot of the counters, in checkpoint form.
type tally struct {
	Completed uint64 `json:"completed"`
	Reads     uint64 `json:"reads,omitempty"`
	Writes    uint64 `json:"writes,omitempty"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	Retrans   uint64 `json:"retransmits,omitempty"`
	Unreach   uint64 `json:"unreachable,omitempty"`
	Dups      uint64 `json:"duplicates,omitempty"`
	Deduped   uint64 `json:"deduped,omitempty"`
}

func (c *counters) load() tally {
	return tally{
		Completed: c.completed.Load(), Reads: c.reads.Load(), Writes: c.writes.Load(),
		Coalesced: c.coalesced.Load(), Retrans: c.retrans.Load(), Unreach: c.unreach.Load(),
		Dups: c.dups.Load(), Deduped: c.deduped.Load(),
	}
}

func (c *counters) store(t tally) {
	c.completed.Store(t.Completed)
	c.reads.Store(t.Reads)
	c.writes.Store(t.Writes)
	c.coalesced.Store(t.Coalesced)
	c.retrans.Store(t.Retrans)
	c.unreach.Store(t.Unreach)
	c.dups.Store(t.Dups)
	c.deduped.Store(t.Deduped)
}
