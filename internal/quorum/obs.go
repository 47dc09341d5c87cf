package quorum

import (
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

// obsSnapshot brackets one quorum operation's accounting.
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

// observed runs op between two quiesced accounting snapshots and emits one
// "quorum_<kind>" event with the deltas. Quiescing keeps fire-and-forget
// traffic (read repairs, surplus vote replies) attributed to the operation
// that caused it, which is why the deltas are only meaningful under a
// sequential driver. op returns one result attribute appended to the event
// on success ("seq" for reads/writes, "missed" for recovery).
func (c *Cluster) observed(o *obs.Obs, kind string, p model.ProcessorID, op func() (obs.Attr, error)) error {
	c.track.Wait()
	before := c.obsSnap()
	result, err := op()
	c.track.Wait()
	after := c.obsSnap()

	ctl := after.net.ControlSent - before.net.ControlSent
	data := after.net.DataSent - before.net.DataSent
	io := (after.inputs - before.inputs) + (after.outputs - before.outputs)
	attrs := []obs.Attr{
		obs.Int("proc", int(p)),
		obs.Int("ctl", ctl),
		obs.Int("data", data),
		obs.Int("io", io),
	}
	for t := 0; t < netsim.NumTypes; t++ {
		if d := after.net.PerType[t] - before.net.PerType[t]; d > 0 {
			attrs = append(attrs, obs.Int("m."+netsim.Type(t).String(), d))
			o.Counter("quorum.msg." + netsim.Type(t).String()).Add(int64(d))
		}
	}
	if err == nil {
		attrs = append(attrs, result)
	} else {
		attrs = append(attrs, obs.String("error", err.Error()))
		o.Counter("quorum.errors").Inc()
	}
	o.Emit(obs.Event{Name: "quorum_" + kind, Attrs: attrs})
	o.Counter("quorum." + kind + "s").Inc()
	o.Counter("quorum.msg.control").Add(int64(ctl))
	o.Counter("quorum.msg.data").Add(int64(data))
	o.Counter("quorum.io").Add(int64(io))
	o.Histogram("quorum.op_msgs", 0, 2, 4, 8, 16, 32, 64).Observe(int64(ctl + data))
	return err
}
