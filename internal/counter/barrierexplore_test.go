// Schedule exploration of the barrier: concurrent arrivals run under
// the internal/sched controlled scheduler through AwaitHooked, which
// runs Await's own arrive/wait body with ticket draws traversing the
// real counting network. Invariant: in every interleaving, each
// party's k-th arrival returns generation k — no lost wakeups, no
// generation skew — and at rest the tickets are exactly
// 0..arrivals-1. Lives in package counter_test because sched imports
// counter.
package counter_test

import (
	"fmt"
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/sched"
)

// barrierSystem builds a sched.System of parties tasks that each pass
// through a fresh barrier over K(2,2) rounds times, entering the
// ticket network on distinct wires.
func barrierSystem(t testing.TB, parties, rounds int) sched.System {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return func() ([]sched.TaskFunc, func(*sched.Trace) error) {
		b := counter.NewBarrier(parties, counter.NewNetworkCounter(net, false))
		gens := make([][]int64, parties)
		errs := make([]error, parties)
		tasks := make([]sched.TaskFunc, parties)
		for i := range tasks {
			tasks[i] = func(y *sched.Yield) {
				for r := 0; r < rounds; r++ {
					gen, err := b.AwaitHooked(i%net.Width(), y.Step, y.Block)
					if err != nil {
						errs[i] = err
						return
					}
					gens[i] = append(gens[i], gen)
				}
			}
		}
		check := func(tr *sched.Trace) error {
			for i, gs := range gens {
				if errs[i] != nil {
					return fmt.Errorf("party %d round %d: %v", i, len(gs), errs[i])
				}
				if len(gs) != rounds {
					return fmt.Errorf("party %d completed %d of %d rounds", i, len(gs), rounds)
				}
				for r, g := range gs {
					if g != int64(r) {
						return fmt.Errorf("party %d round %d returned generation %d (all: %v)", i, r, g, gs)
					}
				}
			}
			return b.Quiesce()
		}
		return tasks, check
	}
}

// TestBarrierUnderExploredSchedules drives random and bounded-
// preemption-exhaustive interleavings of concurrent barrier arrivals.
func TestBarrierUnderExploredSchedules(t *testing.T) {
	for _, tc := range []struct{ parties, rounds int }{
		{2, 3}, // reuse across generations
		{3, 2}, // more arrival races per generation
	} {
		name := fmt.Sprintf("p%dr%d", tc.parties, tc.rounds)
		sys := barrierSystem(t, tc.parties, tc.rounds)
		if rep := sched.ExploreRandom(sys, 0xba44, 150, 20_000); rep.Failure != nil {
			t.Errorf("%s random: %s", name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 5_000, 20_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", name, rep.Failure)
		}
	}
}

// TestTicketGenerationRefuted: the naive ticket-ordered barrier —
// generation and release decided by the counting-network ticket value,
// as in "release when ticket == boundary-1" — deadlocks under reuse,
// because counting networks are not linearizable: a re-arriving party
// can draw a ticket belonging to the previous generation, leaving that
// generation's closing ticket with a party that never arrives again.
// The exploration must find such a schedule; this is the refutation
// that justifies Barrier's arrival-ordered release.
func TestTicketGenerationRefuted(t *testing.T) {
	const parties, rounds = 3, 2
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := func() ([]sched.TaskFunc, func(*sched.Trace) error) {
		b := counter.NewBarrier(parties, counter.NewNetworkCounter(net, false))
		tasks := make([]sched.TaskFunc, parties)
		for i := range tasks {
			tasks[i] = func(y *sched.Yield) {
				for r := 0; r < rounds; r++ {
					b.TicketOrderedAwaitHooked(i%net.Width(), y.Step, y.Block)
				}
			}
		}
		return tasks, func(tr *sched.Trace) error { return nil }
	}
	rep := sched.ExploreRandom(sys, 0xdead, 500, 20_000)
	if rep.Failure == nil {
		t.Fatal("ticket-ordered release survived exploration; expected a deadlock schedule")
	}
	if !strings.Contains(rep.Failure.Err.Error(), "deadlock") {
		t.Fatalf("unexpected failure kind: %v", rep.Failure.Err)
	}
}

// FuzzBarrierSchedules feeds arbitrary byte strings through the
// internal/sched ByteDecoder: every input denotes a valid interleaving
// of three parties passing a barrier twice. Waiting arrivals park until
// their generation is released, so the decoder only ever picks among
// runnable tasks; any reported error — a deadlock, a wrong generation,
// a ticket gap at rest — is a real bug. Failing inputs replay
// byte-for-byte from the corpus file.
func FuzzBarrierSchedules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 0, 1, 2})
	f.Add([]byte{255, 127, 63, 31, 15, 7, 3, 1})
	sys := barrierSystem(f, 3, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, check := sys()
		tr, err := sched.Run(&sched.ByteDecoder{Data: data}, 20_000, tasks)
		if err == nil {
			err = check(tr)
		}
		if err != nil {
			t.Fatalf("schedule bytes %x: %v", data, err)
		}
	})
}
