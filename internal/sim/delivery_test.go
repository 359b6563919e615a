package sim

// In-package checks of word delivery (sim.go): broadcast words are stored
// per vertex, so a run whose machines only broadcast never allocates the
// per-arc slabs, and the reserved portWord cannot be sent.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// stripeProgram sends for a few rounds, then halts. With perPort set,
// vertex v's ports carry v, v+1, ... (a per-port send); otherwise every
// port carries v (a broadcast).
func stripeProgram(perPort bool) Factory {
	return func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		return machineFunc(func(round int, in Inbox, out []Word) bool {
			in.Words()
			for p := range out {
				out[p] = info.ID
				if perPort {
					out[p] += int64(p)
				}
			}
			return round >= int(info.ID%4)
		})
	}
}

func TestBroadcastOnlyRunAllocatesNoPortSlabs(t *testing.T) {
	g := rg(11, 600, 0.02)
	topo := NewTopology(g)
	for _, shards := range []int{1, 3} {
		for _, perPort := range []bool{false, true} {
			inst, err := newInstance(topo, stripeProgram(perPort), shards, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.run(context.Background(), 10, nil, nil); err != nil {
				t.Fatal(err)
			}
			allocated := inst.ports[0] != nil || inst.ports[1] != nil
			if allocated != perPort {
				t.Fatalf("%d shards, per-port %v: per-arc slabs allocated = %v", shards, perPort, allocated)
			}
		}
	}
}

// TestPortWordSendFailsRun: a machine that sends the reserved word, on one
// port or on all of them, fails the run with an error naming the lowest
// such vertex and the round, on every visit order and shard count.
func TestPortWordSendFailsRun(t *testing.T) {
	g := graph.Path(8)
	topo := NewTopology(g)
	for _, perPort := range []bool{false, true} {
		f := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
			return machineFunc(func(round int, in Inbox, out []Word) bool {
				SendAllWords(out, 1)
				if round == 2 && (info.V == 3 || info.V == 6) {
					if perPort {
						out[1] = portWord
					} else {
						SendAllWords(out, portWord)
					}
				}
				return false
			})
		}
		for _, shards := range []int{1, 2} {
			for _, reverse := range []bool{false, true} {
				inst, err := newInstance(topo, f, shards, reverse)
				if err != nil {
					t.Fatal(err)
				}
				_, err = inst.run(context.Background(), 10, nil, nil)
				if err == nil || errors.Is(err, ErrRoundLimit) ||
					!strings.Contains(err.Error(), "vertex 3 ") || !strings.Contains(err.Error(), "round 2") {
					t.Fatalf("per-port %v, %d shards, reverse %v: err = %v", perPort, shards, reverse, err)
				}
			}
		}
	}
}
