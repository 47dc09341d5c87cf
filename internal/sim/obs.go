package sim

import (
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

// obsSnapshot is the accounting state of the cluster at one instant; the
// difference of two snapshots attributes messages (by billing class and by
// protocol type) and I/Os to the request executed between them.
type obsSnapshot struct {
	net     netsim.Stats
	inputs  int
	outputs int
}

func (c *Cluster) obsSnap() obsSnapshot {
	s := obsSnapshot{net: c.net.Stats()}
	for _, n := range c.nodes {
		st := n.store.Stats()
		s.inputs += st.Inputs
		s.outputs += st.Outputs
	}
	return s
}

// emitRequest emits the per-request event and bumps the registry, given
// the accounting snapshots bracketing the request and the allocation
// scheme before it. It returns the scheme after the request, which callers
// thread through as the next request's "before" scheme. Only called on
// observed clusters; the driver is sequential here, so emission order is
// schedule order and the resulting event stream is deterministic.
func (c *Cluster) emitRequest(o *obs.Obs, index int, q model.Request, before, after obsSnapshot, prevScheme model.Set) model.Set {
	kind := "write"
	if q.IsRead() {
		kind = "read"
	}
	ctl := after.net.ControlSent - before.net.ControlSent
	data := after.net.DataSent - before.net.DataSent
	in := after.inputs - before.inputs
	out := after.outputs - before.outputs
	scheme := c.Scheme()

	attrs := []obs.Attr{
		obs.Int("index", index),
		obs.String("kind", kind),
		obs.Int("proc", int(q.Processor)),
		obs.Int("ctl", ctl),
		obs.Int("data", data),
		obs.Int("io", in+out),
	}
	for t := 0; t < netsim.NumTypes; t++ {
		if d := after.net.PerType[t] - before.net.PerType[t]; d > 0 {
			attrs = append(attrs, obs.Int("m."+netsim.Type(t).String(), d))
			o.Counter("sim.msg." + netsim.Type(t).String()).Add(int64(d))
		}
	}
	attrs = append(attrs, obs.String("scheme", scheme.String()))
	if scheme != prevScheme {
		attrs = append(attrs, obs.String("scheme_prev", prevScheme.String()))
		o.Counter("sim.scheme.transitions").Inc()
	}
	o.Emit(obs.Event{Name: "request", Attrs: attrs})

	o.Counter("sim.requests").Inc()
	o.Counter("sim.requests." + kind).Inc()
	o.Counter("sim.msg.control").Add(int64(ctl))
	o.Counter("sim.msg.data").Add(int64(data))
	o.Counter("sim.io.inputs").Add(int64(in))
	o.Counter("sim.io.outputs").Add(int64(out))
	o.Histogram("sim.request_msgs", 0, 1, 2, 4, 8, 16, 32, 64).Observe(int64(ctl + data))
	o.Histogram("sim.request_io", 0, 1, 2, 4, 8, 16, 32).Observe(int64(in + out))
	return scheme
}

// emitReadBurst emits the aggregate event of one maximal run of concurrent
// reads (RunConcurrent's §3.1 semantics). Individual reads of the burst
// interleave nondeterministically, so per-read attribution would be
// meaningless; the aggregate deltas are deterministic because the burst is
// quiesced before the snapshot.
func (c *Cluster) emitReadBurst(o *obs.Obs, index, count int, before, after obsSnapshot, prevScheme model.Set) model.Set {
	ctl := after.net.ControlSent - before.net.ControlSent
	data := after.net.DataSent - before.net.DataSent
	in := after.inputs - before.inputs
	out := after.outputs - before.outputs
	scheme := c.Scheme()
	attrs := []obs.Attr{
		obs.Int("index", index),
		obs.Int("count", count),
		obs.Int("ctl", ctl),
		obs.Int("data", data),
		obs.Int("io", in+out),
		obs.String("scheme", scheme.String()),
	}
	if scheme != prevScheme {
		attrs = append(attrs, obs.String("scheme_prev", prevScheme.String()))
		o.Counter("sim.scheme.transitions").Inc()
	}
	o.Emit(obs.Event{Name: "readburst", Attrs: attrs})
	o.Counter("sim.requests").Add(int64(count))
	o.Counter("sim.requests.read").Add(int64(count))
	o.Counter("sim.msg.control").Add(int64(ctl))
	o.Counter("sim.msg.data").Add(int64(data))
	o.Counter("sim.io.inputs").Add(int64(in))
	o.Counter("sim.io.outputs").Add(int64(out))
	return scheme
}
