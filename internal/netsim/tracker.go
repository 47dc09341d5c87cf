package netsim

import "sync"

// Tracker counts outstanding work items (delivered-but-unprocessed
// messages and in-flight driver commands) so the driver of an engine
// running on the network can wait for the system to quiesce.
type Tracker struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

// NewTracker returns a tracker with no outstanding work.
func NewTracker() *Tracker {
	t := &Tracker{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Add registers k more outstanding work items.
func (t *Tracker) Add(k int) {
	t.mu.Lock()
	t.n += k
	t.mu.Unlock()
}

// Done retires one work item, waking waiters when none remain. It
// panics if more items are retired than were added.
func (t *Tracker) Done() {
	t.mu.Lock()
	t.n--
	if t.n == 0 {
		t.cond.Broadcast()
	}
	if t.n < 0 {
		panic("netsim: tracker underflow")
	}
	t.mu.Unlock()
}

// Wait blocks until no work is outstanding.
func (t *Tracker) Wait() {
	t.mu.Lock()
	for t.n != 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}
