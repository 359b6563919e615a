package sim_test

// Word-level checks of the message plane (sim/words.go): programs whose
// payloads are full 64-bit words — wide identifiers, WordSizer-accounted
// sizes — must be observationally identical on every engine and on the
// pre-CSR reference plane: same per-vertex results, same Stats (messages,
// bits, max bits). The allocation tests pin the plane's steady state at
// zero heap allocations per round for arbitrary word values.

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// refExec adapts the reference engine kept in plane_test.go to sim.Exec,
// so whole algorithm pipelines can be replayed on the unoptimized plane
// (see the algorithm equivalence tests in the algorithm packages and
// plane_test.go).
type refExec struct{}

func (refExec) Run(ctx context.Context, t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error) {
	return runReference(t, f, maxRounds)
}

// wordSizedMachine staggers halting, sends payloads on a rotating subset
// of ports, folds everything received into an accumulator, and reports a
// payload-dependent bit size through WordSizer.
type wordSizedMachine struct {
	info    sim.NodeInfo
	results []int64
}

func (m *wordSizedMachine) Step(round int, in sim.Inbox, out []sim.Word) bool {
	acc := m.results[m.info.V]
	for p, w := range in.Words() {
		if w == sim.NoWord {
			acc = acc*31 + 7
		} else {
			acc = acc*31 + w + int64(p)
		}
	}
	m.results[m.info.V] = acc
	for p := range out {
		if (p+round+int(m.info.ID))%3 != 2 {
			out[p] = m.info.ID + int64(p)
		}
	}
	return round >= int(m.info.ID%5)
}

func (m *wordSizedMachine) WordBits(w sim.Word) int64 { return w%13 + 14 }

func wordSizedProgram(results []int64) sim.Factory {
	return func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		return &wordSizedMachine{info: info, results: results}
	}
}

// mixedMachine switches representation from round to round: by
// (round + ID) mod 5 it broadcasts one word, sends a different word on
// every port, sends on the even ports only, stays silent, or broadcasts a
// second word. It reads its inbox only in some rounds (the pull path must
// not depend on being called), folds what it reads into an accumulator,
// and halts in round 2 + ID mod 7 right after that round's send, which is
// a per-port or partly silent send for some vertices.
type mixedMachine struct {
	info    sim.NodeInfo
	results []int64
}

func (m *mixedMachine) Step(round int, in sim.Inbox, out []sim.Word) bool {
	id := m.info.ID
	if (round+int(id%3))%3 != 0 {
		acc := m.results[m.info.V]
		for p, w := range in.Words() {
			if w == sim.NoWord {
				acc = acc*31 + 7
			} else {
				acc = acc*31 + w + int64(p)
			}
		}
		m.results[m.info.V] = acc
	}
	switch (round + int(id%5)) % 5 {
	case 0:
		sim.SendAllWords(out, id+int64(round))
	case 1:
		for p := range out {
			out[p] = id + int64(p)
		}
	case 2:
		for p := 0; p < len(out); p += 2 {
			out[p] = id + int64(round)
		}
	case 4:
		sim.SendAllWords(out, 2*id+1)
	}
	return round >= 2+int(id%7)
}

func (m *mixedMachine) WordBits(w sim.Word) int64 { return w%11 + 5 }

func mixedProgram(results []int64) sim.Factory {
	return func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		return &mixedMachine{info: info, results: results}
	}
}

// wideIDs relabels the n vertices with distinct identifiers that need all
// of a word's width — a reversed order scaled past 2^40 — while keeping
// identifier 0 (the flood source) in use.
func wideIDs(n int) []int64 {
	ids := make([]int64, n)
	for v := range ids {
		ids[v] = int64(n-1-v) * (1<<40 + 3)
	}
	return ids
}

// TestWordPlaneEquivalenceMatrix runs each word program over the plane
// grid with wide identifiers: per-vertex results and Stats must be
// identical between every engine and the reference plane.
func TestWordPlaneEquivalenceMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-small", planeRandomGraph(1, 60, 0.15)},
		{"gnp-sparse", planeRandomGraph(2, 250, 0.015)},
		{"gnp-dense", planeRandomGraph(3, 50, 0.6)},
		// Enough vertices for Parallel to shard on a multi-core machine.
		{"gnp-sharded", planeRandomGraph(4, 1200, 0.006)},
		{"star", graph.Star(40)},
		{"path", graph.Path(30)},
		{"complete", graph.Complete(24)},
		{"cycle", graph.Cycle(17)},
		{"isolated", graph.NewBuilder(12).MustBuild()},
		{"single", graph.NewBuilder(1).MustBuild()},
		{"empty", graph.NewBuilder(0).MustBuild()},
	}
	programs := []struct {
		name string
		prog func([]int64) sim.Factory
	}{
		{"sum", sumProgram},
		{"flood", floodProgram},
		{"sized", wordSizedProgram},
		{"mixed", mixedProgram},
	}
	engines := []struct {
		name string
		eng  sim.Exec
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
		{"parallel", sim.Parallel},
		{"instrumented", sim.Instrumented(sim.Parallel, func(sim.RoundEvent) {}, &sim.Bandwidth{})},
	}
	const maxRounds = 64
	for _, gc := range graphs {
		for _, pc := range programs {
			t.Run(gc.name+"/"+pc.name, func(t *testing.T) {
				topo := &sim.Topology{G: gc.g, IDs: wideIDs(gc.g.N())}
				wantRes := make([]int64, gc.g.N())
				wantStats, wantErr := runReference(topo, pc.prog(wantRes), maxRounds)
				for _, ec := range engines {
					gotRes := make([]int64, gc.g.N())
					gotStats, gotErr := ec.eng.Run(context.Background(), topo, pc.prog(gotRes), maxRounds)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: error mismatch: reference %v, got %v", ec.name, wantErr, gotErr)
					}
					if gotStats != wantStats {
						t.Fatalf("%s: stats %+v, reference %+v", ec.name, gotStats, wantStats)
					}
					for v := range wantRes {
						if gotRes[v] != wantRes[v] {
							t.Fatalf("%s: vertex %d result %d, reference %d", ec.name, v, gotRes[v], wantRes[v])
						}
					}
				}
			})
		}
	}
}

// --- allocation regression -------------------------------------------------

// wordExchangeProgram is exchangeProgram with payloads well beyond the
// runtime's small-integer range, proving the plane is alloc-free for
// arbitrary word values.
func wordExchangeProgram(rounds int) sim.Factory {
	return func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		var acc int64
		return stepFunc(func(round int, in sim.Inbox, out []sim.Word) bool {
			for _, w := range in.Words() {
				if w != sim.NoWord {
					acc += w
				}
			}
			sim.SendAllWords(out, int64(round)+1_000_000)
			return round >= rounds-1
		})
	}
}

// TestWordPlaneSteadyStateAllocFree pins the plane's contract on both
// one-shard engines: after instance setup, zero heap allocations per
// round, payload values notwithstanding.
func TestWordPlaneSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(7, 400, 0.04)
	topo := sim.NewTopology(g)
	g.CSR() // build the cached view outside the measurement
	for _, ec := range []struct {
		name string
		eng  sim.Engine
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
	} {
		t.Run(ec.name, func(t *testing.T) {
			run := func(rounds int) {
				if _, err := ec.eng.Run(context.Background(), topo, wordExchangeProgram(rounds), rounds+2); err != nil {
					t.Fatal(err)
				}
			}
			short, long := shortLongAllocs(run)
			if long != short {
				t.Fatalf("word plane allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
					long-short, long, short)
			}
		})
	}
}
