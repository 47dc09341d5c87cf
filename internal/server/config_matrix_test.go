package server

import (
	"fmt"
	"strings"
	"testing"

	"objalloc/internal/diskfault"
	"objalloc/internal/netsim"
)

// TestConfigMatrix walks engine × {journal, recover, panic, disk faults,
// coalesce}. Normalize must refuse exactly the combinations that cannot
// keep the service's invariants; every combination it accepts must keep
// accepted == completed at drain and, where a journal exists, live
// accounting equal to what ReplayDir rebuilds from the journal alone.
// Under the directory engines, which run with loss and delay faults,
// every accepted combination must also account exactly like a clean run
// (no journal, recovery, panic or disk fault) with the same coalescing:
// crashes and transient disk faults leave the accounting untouched.
func TestConfigMatrix(t *testing.T) {
	const (
		withJournal = 1 << iota
		withRecover
		withPanic
		withDiskFaults
		withCoalesce
		allSets = 1 << iota
	)
	names := []string{"journal", "recover", "panic", "diskfaults", "coalesce"}
	const objects, perObject, workers = 4, 10, 2
	clean := map[string]string{} // engine/coalesce → clean run's detStats

	for _, eng := range []Engine{EngineDA, EngineSA, EngineAdaptive, EngineHA} {
		for set := 0; set < allSets; set++ {
			var parts []string
			for i, n := range names {
				if set&(1<<i) != 0 {
					parts = append(parts, n)
				}
			}
			name := eng.String() + "/" + strings.Join(parts, "+")
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				config := func(set int) Config {
					cfg := Config{Shards: 2, N: 4, T: 2, Engine: eng, Seed: 3, CheckpointEvery: 4}
					if eng != EngineHA {
						// The HA backend runs real clusters; message faults
						// there are the chaos tests' job.
						cfg.Faults = &netsim.FaultPlan{Seed: 5, Loss: 0.1, Delay: 0.2, DelayMax: 3}
						cfg.Retry = netsim.RetryPolicy{MaxAttempts: 4}
					}
					if set&withJournal != 0 {
						cfg.Journal = dir
					}
					if set&withRecover != 0 {
						cfg.Recover = true
					}
					if set&withPanic != 0 {
						cfg.PanicAfter = 5
					}
					if set&withDiskFaults != 0 {
						plan, err := diskfault.ParsePlan("syncerrat=2,shortat=7")
						if err != nil {
							t.Fatal(err)
						}
						cfg.DiskFaults = &plan
					}
					if set&withCoalesce != 0 {
						cfg.Coalesce = CoalesceOn
					}
					return cfg
				}

				refuse := (set&withRecover != 0 && set&withJournal == 0) ||
					(set&withDiskFaults != 0 && set&withJournal == 0) ||
					(eng == EngineHA && set&withJournal != 0) ||
					(set&withCoalesce != 0 && (eng == EngineHA || eng == EngineAdaptive))
				cfg := config(set)
				if err := cfg.Normalize(); refuse != (err != nil) {
					t.Fatalf("Normalize refused=%t (%v), want refused=%t", err != nil, err, refuse)
				}
				if refuse {
					return
				}

				from := 0
				if set&withRecover != 0 {
					// Journal the first half without recovering, so the
					// recovering server has a real journal to rebuild from.
					first := config(set)
					first.Recover = false
					s, err := New(first)
					if err != nil {
						t.Fatal(err)
					}
					driveRange(t, s, objects, 0, perObject/2, workers)
					s.Drain()
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					from = perObject / 2
				}
				s, err := New(config(set))
				if err != nil {
					t.Fatal(err)
				}
				driveRange(t, s, objects, from, perObject, workers)
				s.Drain()
				defer s.Close()
				st := s.Stats()
				if eng != EngineHA {
					key := fmt.Sprintf("%s/%d", eng, set&withCoalesce)
					want, ok := clean[key]
					if !ok {
						// The clean run: the same faults and coalescing,
						// nothing else.
						cs, err := New(config(set & withCoalesce))
						if err != nil {
							t.Fatal(err)
						}
						driveRange(t, cs, objects, 0, perObject, workers)
						cs.Drain()
						cs.Close()
						want = detStats(cs.Stats())
						clean[key] = want
					}
					if got := detStats(st); got != want {
						t.Fatalf("accounting diverges from the clean run:\n  got   %s\n  clean %s", got, want)
					}
				}
				if st.Accepted != st.Complete || st.Complete != objects*perObject {
					t.Fatalf("accepted %d completed %d, want both %d", st.Accepted, st.Complete, objects*perObject)
				}
				if err := s.DrainErr(); err != nil {
					t.Fatalf("drain reported a durability loss: %v", err)
				}
				if set&withDiskFaults != 0 && opsCounter(s, "server.journal_faults") == 0 {
					t.Fatal("the disk-fault plan injected no journal fault; the case is vacuous")
				}
				if set&withJournal == 0 {
					return
				}
				rp, err := ReplayDir(config(set))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := detStats(rp), detStats(st); got != want {
					t.Fatalf("live != replay:\n  live   %s\n  replay %s", want, got)
				}
			})
		}
	}
}
