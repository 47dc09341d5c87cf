// Package quorum implements quorum consensus for replicated data in the
// style of Thomas's majority voting and Gifford's weighted voting — the
// mechanism the paper designates as DA's failure fallback (§2: "the DA
// algorithm handles failures by resorting to quorum consensus with static
// allocation when a processor of the set F fails").
//
// Every processor holds a (possibly stale) copy tagged with a version
// number. A write first collects version numbers from a write quorum,
// assigns the successor of the maximum, and installs the new version on the
// write quorum. A read collects version numbers from a read quorum and
// fetches the object from a holder of the maximum. With
// ReadQuorum + WriteQuorum > N and 2·WriteQuorum > N, any read quorum
// intersects any write quorum and any two write quorums intersect, so reads
// always observe the latest committed version and version numbers never
// collide — despite any minority of crashed processors.
//
// The implementation reuses the billing network (package netsim) and local
// databases (package storage): vote requests/replies and acknowledgements
// are control messages, object transfers are data messages, and every
// database input/output is counted, so the failure-mode experiments can
// price quorum operation in the paper's cost model.
//
// Failure detection is fail-stop with a perfect detector: the driver marks
// processors crashed/restarted (Crash, Restart), and clients select quorums
// from live processors only. This matches the paper's normal-mode/failure-
// mode dichotomy; partial synchrony is out of scope.
package quorum

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// ErrUnavailable is returned when fewer live processors remain than the
// operation's quorum requires.
var ErrUnavailable = errors.New("quorum: not enough live processors for a quorum")

// Config describes a quorum cluster.
type Config struct {
	// N is the number of processors.
	N int
	// ReadQuorum and WriteQuorum are the quorum sizes; zero means
	// majority (⌊N/2⌋ + 1). They must satisfy ReadQuorum+WriteQuorum > N
	// and 2·WriteQuorum > N.
	ReadQuorum, WriteQuorum int
	// Weights optionally assigns voting weights per processor (Gifford's
	// weighted voting); nil means one vote each. With weights, quorum
	// sizes are vote totals rather than processor counts.
	Weights []int
	// NewStore builds the local database of one processor; nil means
	// in-memory stores. Stores may come preloaded (the failover path
	// hands over the surviving DA replicas).
	NewStore func(id model.ProcessorID) (storage.Store, error)
	// Preload, when true, installs version 1 of the object on every
	// processor whose store is empty, modeling a fresh statically
	// replicated system.
	Preload bool
	// ReadRepair, when true, makes reads push the latest version to any
	// stale voter discovered in the read quorum — the classic anti-
	// entropy refinement. Repairs are billed (one data message and one
	// output per stale voter) but do not delay the read's reply.
	ReadRepair bool
	// Obs attaches the instrumentation layer: each Read/Write/Recover
	// emits one structured event with its message/I/O deltas and bumps the
	// registry. The deltas are obtained by quiescing around the operation,
	// so they are meaningful under a sequential driver (which is how the
	// failover layer and the experiments drive quorum mode). Nil disables
	// instrumentation.
	Obs *obs.Obs
	// Faults, when non-nil and active, installs a deterministic fault
	// plan on the network and — unless Retry disables it — engages the
	// retransmission discipline: vote/fetch/install rounds are
	// retransmitted under capped exponential backoff with duplicate
	// replies deduplicated, and an operation whose budget is exhausted
	// aborts with an ErrUnavailable-wrapped netsim.Unreachable.
	Faults *netsim.FaultPlan
	// Retry tunes the retransmission discipline; the zero value enables
	// it (with default caps) exactly when Faults is active.
	Retry netsim.RetryPolicy
}

func (c *Config) normalize() error {
	if c.N < 1 {
		return fmt.Errorf("quorum: N = %d", c.N)
	}
	totalVotes := c.N
	if c.Weights != nil {
		if len(c.Weights) != c.N {
			return fmt.Errorf("quorum: %d weights for %d processors", len(c.Weights), c.N)
		}
		totalVotes = 0
		for i, w := range c.Weights {
			if w < 0 {
				return fmt.Errorf("quorum: negative weight for processor %d", i)
			}
			totalVotes += w
		}
		if totalVotes == 0 {
			return fmt.Errorf("quorum: all weights zero")
		}
	}
	if c.ReadQuorum < 0 || c.WriteQuorum < 0 {
		return fmt.Errorf("quorum: negative quorum R=%d W=%d", c.ReadQuorum, c.WriteQuorum)
	}
	if c.ReadQuorum == 0 {
		c.ReadQuorum = totalVotes/2 + 1
	}
	if c.WriteQuorum == 0 {
		c.WriteQuorum = totalVotes/2 + 1
	}
	if c.ReadQuorum+c.WriteQuorum <= totalVotes {
		return fmt.Errorf("quorum: R (%d) + W (%d) must exceed total votes (%d)", c.ReadQuorum, c.WriteQuorum, totalVotes)
	}
	if 2*c.WriteQuorum <= totalVotes {
		return fmt.Errorf("quorum: 2W (%d) must exceed total votes (%d)", 2*c.WriteQuorum, totalVotes)
	}
	return nil
}

func (c Config) weight(id model.ProcessorID) int {
	if c.Weights == nil {
		return 1
	}
	return c.Weights[id]
}

// Cluster is a running quorum-replicated system.
type Cluster struct {
	cfg   Config
	net   *netsim.Network
	nodes []*node

	// lossy is set when a fault plan is active; retries additionally
	// requires the retransmission discipline not to be disabled.
	lossy   bool
	retries bool
	corrSeq atomic.Uint64 // driver-side operation correlation ids

	mu      sync.Mutex
	alive   model.Set
	track   *netsim.Tracker
	seqHint uint64 // highest version number the driver has observed

	closeOnce sync.Once
}

// New builds and starts the cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, net: netsim.New(cfg.N), alive: model.FullSet(cfg.N), track: netsim.NewTracker()}
	if cfg.Faults != nil && cfg.Faults.Active() {
		if err := c.net.InstallFaults(*cfg.Faults); err != nil {
			return nil, err
		}
		c.lossy = true
		c.retries = !cfg.Retry.Disabled
	}
	c.net.SetObs(cfg.Obs)
	c.net.Trace(func(_ netsim.Message, delivered bool) {
		if delivered {
			c.track.Add(1)
		}
	})
	newStore := cfg.NewStore
	if newStore == nil {
		newStore = func(model.ProcessorID) (storage.Store, error) { return storage.NewMem(), nil }
	}
	for i := 0; i < cfg.N; i++ {
		id := model.ProcessorID(i)
		st, err := newStore(id)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("quorum: store for %d: %w", id, err)
		}
		if cfg.Preload && !st.HasCopy() {
			if err := st.Put(storage.Version{Seq: 1, Writer: -1, Data: []byte("initial")}); err != nil {
				c.Close()
				return nil, err
			}
			st.ResetStats()
		}
		n, err := newNode(c, id, st)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if v, ok := st.Peek(); ok && v.Seq > c.seqHint {
			c.seqHint = v.Seq
		}
	}
	for _, n := range c.nodes {
		n.start()
	}
	return c, nil
}

// Crash marks a processor failed: it stops answering and its messages are
// dropped. Its local database contents survive for a later Restart.
// Crashing an unknown processor is an error.
func (c *Cluster) Crash(id model.ProcessorID) error {
	if err := c.net.Crash(id); err != nil {
		return err
	}
	c.mu.Lock()
	c.alive = c.alive.Remove(id)
	c.mu.Unlock()
	return nil
}

// Restart brings a crashed processor back with whatever its local database
// last held. Use Recover to bring its copy up to date. Restarting an
// unknown processor is an error.
func (c *Cluster) Restart(id model.ProcessorID) error {
	if err := c.net.Restart(id); err != nil {
		return err
	}
	c.mu.Lock()
	c.alive = c.alive.Add(id)
	c.mu.Unlock()
	return nil
}

// Alive returns the set of live processors.
func (c *Cluster) Alive() model.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alive
}

// quorumOf selects live processors, preferring self, until the required
// votes are gathered. It returns an error if the live votes cannot reach
// the threshold.
func (c *Cluster) quorumOf(self model.ProcessorID, votes int) (model.Set, error) {
	c.mu.Lock()
	alive := c.alive
	c.mu.Unlock()
	var q model.Set
	got := 0
	take := func(id model.ProcessorID) {
		if got < votes && alive.Contains(id) && !q.Contains(id) && c.cfg.weight(id) > 0 {
			q = q.Add(id)
			got += c.cfg.weight(id)
		}
	}
	take(self)
	alive.ForEach(take)
	if got < votes {
		return model.EmptySet, ErrUnavailable
	}
	return q, nil
}

// Read executes a quorum read issued by processor p: version numbers are
// collected from a read quorum and the object is fetched from a holder of
// the maximum.
func (c *Cluster) Read(p model.ProcessorID) (storage.Version, error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.read(p)
	}
	var v storage.Version
	err := c.observed(o, "read", p, func() (obs.Attr, error) {
		var err error
		v, err = c.read(p)
		return obs.Uint64("seq", v.Seq), err
	})
	return v, err
}

func (c *Cluster) read(p model.ProcessorID) (storage.Version, error) {
	n, err := c.node(p)
	if err != nil {
		return storage.Version{}, err
	}
	targets, err := c.quorumOf(p, c.cfg.ReadQuorum)
	if err != nil {
		return storage.Version{}, err
	}
	return c.perform(n, command{kind: cmdRead, targets: targets, reply: make(chan result, 1)})
}

// perform submits a read or write to the issuing node's event loop and
// waits for its result. On a lossy network with retries enabled it drives
// the operation's retransmission discipline: after each quiescence round
// whose backoff has elapsed it kicks the node into retransmitting the
// phase's outstanding requests, and when the attempt budget is exhausted
// it aborts the operation with an ErrUnavailable-wrapped Unreachable.
func (c *Cluster) perform(n *node, cmd command) (storage.Version, error) {
	cmd.corr = c.corrSeq.Add(1)
	if !c.submitTracked(n, cmd) {
		return storage.Version{}, errClusterClosed
	}
	if !c.retries {
		res := <-cmd.reply
		return res.version, res.err
	}
	maxAttempts := c.cfg.Retry.Attempts()
	attempt, nextKick := 0, 1
	for round := 1; ; round++ {
		c.settle()
		select {
		case res := <-cmd.reply:
			return res.version, res.err
		default:
		}
		if round < nextKick {
			continue
		}
		attempt++
		kind := cmdKick
		if attempt > maxAttempts {
			kind = cmdAbort
		}
		if !c.submitTracked(n, command{kind: kind, corr: cmd.corr, attempt: attempt}) {
			return storage.Version{}, errClusterClosed
		}
		if kind == cmdAbort {
			res := <-cmd.reply
			return res.version, res.err
		}
		nextKick = round + c.cfg.Retry.Backoff(attempt)
	}
}

// submitTracked hands a command to a node's event loop, accounting it as
// outstanding work until the handler finishes.
func (c *Cluster) submitTracked(n *node, cmd command) bool {
	c.track.Add(1)
	if !n.submit(cmd) {
		c.track.Done()
		return false
	}
	return true
}

// settle waits for full quiescence: no outstanding tracked work and no
// held (delayed) messages anywhere in the network.
func (c *Cluster) settle() {
	for {
		c.track.Wait()
		if c.net.ReleaseAll() == 0 {
			return
		}
	}
}

// Write executes a quorum write issued by processor p: version numbers are
// collected from a write quorum, the new version gets the successor of the
// maximum, and it is installed on the quorum. It blocks until the quorum
// has acknowledged.
func (c *Cluster) Write(p model.ProcessorID, data []byte) (storage.Version, error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.write(p, data)
	}
	var v storage.Version
	err := c.observed(o, "write", p, func() (obs.Attr, error) {
		var err error
		v, err = c.write(p, data)
		return obs.Uint64("seq", v.Seq), err
	})
	return v, err
}

func (c *Cluster) write(p model.ProcessorID, data []byte) (storage.Version, error) {
	n, err := c.node(p)
	if err != nil {
		return storage.Version{}, err
	}
	targets, err := c.quorumOf(p, c.cfg.WriteQuorum)
	if err != nil {
		return storage.Version{}, err
	}
	v, err := c.perform(n, command{kind: cmdWrite, targets: targets, data: data, reply: make(chan result, 1)})
	if err == nil {
		c.mu.Lock()
		if v.Seq > c.seqHint {
			c.seqHint = v.Seq
		}
		c.mu.Unlock()
	}
	return v, err
}

// Recover brings a restarted processor's copy up to date by reading from a
// quorum and installing the latest version locally — the effect of the
// missing-writes algorithm's catch-up. It returns the number of writes the
// processor had missed.
func (c *Cluster) Recover(id model.ProcessorID) (missed uint64, err error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.recover(id)
	}
	err = c.observed(o, "recover", id, func() (obs.Attr, error) {
		var err error
		missed, err = c.recover(id)
		return obs.Uint64("missed", missed), err
	})
	return missed, err
}

func (c *Cluster) recover(id model.ProcessorID) (missed uint64, err error) {
	n, err := c.node(id)
	if err != nil {
		return 0, err
	}
	before := uint64(0)
	if v, ok := n.store.Peek(); ok {
		before = v.Seq
	}
	latest, err := c.read(id)
	if err != nil {
		return 0, fmt.Errorf("quorum: recover %d: %w", id, err)
	}
	if latest.Seq > before {
		done := make(chan result, 1)
		if !c.submitTracked(n, command{kind: cmdInstall, version: latest, reply: done}) {
			return 0, errClusterClosed
		}
		if res := <-done; res.err != nil {
			return 0, res.err
		}
		return latest.Seq - before, nil
	}
	return 0, nil
}

// Counts returns the accumulated message and I/O accounting.
func (c *Cluster) Counts() cost.Counts {
	st := c.net.Stats()
	counts := cost.Counts{Control: st.ControlSent, Data: st.DataSent}
	for _, n := range c.nodes {
		counts.IO += n.store.Stats().Total()
	}
	return counts
}

// Cost prices the accumulated accounting under the model.
func (c *Cluster) Cost(m cost.Model) float64 { return c.Counts().Price(m) }

// LatestSeq returns the highest committed version number the driver has
// observed (for test assertions).
func (c *Cluster) LatestSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seqHint
}

// StoreOf exposes a processor's local database for failover handover and
// test assertions.
func (c *Cluster) StoreOf(id model.ProcessorID) (storage.Store, error) {
	n, err := c.node(id)
	if err != nil {
		return nil, err
	}
	return n.store, nil
}

// Quiesce blocks until every in-flight message and command has been
// processed — e.g. until fire-and-forget read repairs have settled — and
// no artificially delayed message is still held by the network.
func (c *Cluster) Quiesce() { c.settle() }

// HolderSeqs returns, per processor, the sequence number of the locally
// held copy (0 when none), after quiescing the cluster. The chaos runner's
// invariant checker uses it for per-processor version monotonicity.
func (c *Cluster) HolderSeqs() []uint64 {
	c.settle()
	out := make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		if v, ok := n.store.Peek(); ok {
			out[i] = v.Seq
		}
	}
	return out
}

// Network exposes the underlying network for accounting and fault
// injection by the failover layer and tests.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Close stops all processors and the network.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.net.Close()
		for _, n := range c.nodes {
			n.stop()
		}
	})
}

func (c *Cluster) node(p model.ProcessorID) (*node, error) {
	if int(p) < 0 || int(p) >= len(c.nodes) {
		return nil, fmt.Errorf("quorum: unknown processor %d", p)
	}
	return c.nodes[p], nil
}

var errClusterClosed = errors.New("quorum: cluster closed")
