package sim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/graph"
)

func rg(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// machineFunc adapts a step function to the Machine interface, for the
// small inline programs of these tests.
type machineFunc func(round int, in Inbox, out []Word) bool

func (f machineFunc) Step(round int, in Inbox, out []Word) bool { return f(round, in, out) }

// neighborSumProgram: every vertex broadcasts its ID in round 0, sums the
// received IDs in round 1, stores the result, and halts.
func neighborSumProgram(results []int64) Factory {
	return func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		return machineFunc(func(round int, in Inbox, out []Word) bool {
			switch round {
			case 0:
				SendAllWords(out, info.ID)
				return info.Degree == 0 // isolated vertices are done immediately
			default:
				var sum int64
				for _, w := range in.Words() {
					sum += w
				}
				results[info.V] = sum
				return true
			}
		})
	}
}

func TestNeighborSum(t *testing.T) {
	g := rg(1, 40, 0.2)
	results := make([]int64, g.N())
	topo := NewTopology(g)
	stats, err := Sequential.Run(context.Background(), topo, neighborSumProgram(results), 10)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		var want int64
		for _, a := range g.Adj(v) {
			want += int64(a.To)
		}
		if g.Degree(v) > 0 && results[v] != want {
			t.Fatalf("vertex %d sum = %d, want %d", v, results[v], want)
		}
	}
	if stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds)
	}
	if stats.Messages != 2*int64(g.M()) {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*g.M())
	}
}

// bfsProgram floods a token from the vertex with identifier 0; every vertex
// records the round it first hears the token (its BFS distance).
func bfsProgram(dist []int) Factory {
	return func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		reached := info.ID == 0
		relayed := false
		if reached {
			dist[info.V] = 0
		}
		return machineFunc(func(round int, in Inbox, out []Word) bool {
			if reached && !relayed {
				SendAllWords(out, 1)
				relayed = true
				return true
			}
			if !reached {
				for _, w := range in.Words() {
					if w != NoWord {
						reached = true
						dist[info.V] = round
						break
					}
				}
				if reached {
					SendAllWords(out, 1)
					relayed = true
					return true
				}
			}
			return false
		})
	}
}

func TestBFSDistances(t *testing.T) {
	g := rg(7, 60, 0.08)
	// Compute reference distances from vertex 0 by BFS.
	want := make([]int, g.N())
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.Adj(v) {
			if want[a.To] == -1 {
				want[a.To] = want[v] + 1
				queue = append(queue, int(a.To))
			}
		}
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	topo := NewTopology(g)
	// Unreachable vertices never halt; bound rounds and expect the error if
	// the graph is disconnected.
	_, err := Sequential.Run(context.Background(), topo, bfsProgram(dist), g.N()+2)
	disconnected := false
	for _, d := range want {
		if d == -1 {
			disconnected = true
		}
	}
	if disconnected {
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("expected round-limit error on disconnected graph, got %v", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if want[v] != -1 && dist[v] != want[v] {
			t.Fatalf("vertex %d distance %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestEnginesProduceIdenticalExecutions(t *testing.T) {
	g := rg(3, 200, 0.05)
	r1 := make([]int64, g.N())
	r2 := make([]int64, g.N())
	s1, err := Sequential.Run(context.Background(), NewTopology(g), neighborSumProgram(r1), 10)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parallel.Run(context.Background(), NewTopology(g), neighborSumProgram(r2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("vertex %d differs: %d vs %d", v, r1[v], r2[v])
		}
	}
}

func TestEngineDispatch(t *testing.T) {
	g := graph.Path(4)
	res := make([]int64, 4)
	for _, e := range []Engine{Sequential, Parallel} {
		if _, err := e.Run(context.Background(), NewTopology(g), neighborSumProgram(res), 10); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundLimitError(t *testing.T) {
	g := graph.Path(3)
	forever := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		return machineFunc(func(round int, in Inbox, out []Word) bool {
			return false
		})
	}
	_, err := Sequential.Run(context.Background(), NewTopology(g), forever, 5)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
}

func TestTopologyValidation(t *testing.T) {
	g := graph.Path(3)
	topo := &Topology{G: g, IDs: []int64{1, 1, 2}}
	if err := topo.Validate(); err == nil {
		t.Fatal("expected duplicate ID error")
	}
	topo = &Topology{G: g, IDs: []int64{1}}
	if err := topo.Validate(); err == nil {
		t.Fatal("expected ID length error")
	}
	topo = &Topology{G: g, Labels: []int64{1}}
	if err := topo.Validate(); err == nil {
		t.Fatal("expected label length error")
	}
	topo = &Topology{G: g, IDs: []int64{5, 3, 9}, Labels: []int64{0, 1, 0}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.ID(1) != 3 || topo.Label(2) != 0 {
		t.Fatal("accessors wrong")
	}
	plain := NewTopology(g)
	if plain.ID(2) != 2 || plain.Label(0) != -1 {
		t.Fatal("default accessors wrong")
	}
}

// TestTopologyValidateRejectsDuplicates covers both paths of Validate:
// strictly increasing identifiers are accepted by one scan, any other
// order is checked on a sorted copy.
func TestTopologyValidateRejectsDuplicates(t *testing.T) {
	g := graph.Path(4)
	for _, c := range []struct {
		ids []int64
		dup string
	}{
		{[]int64{1, 2, 5, 7}, ""},
		{[]int64{7, 1, 5, 2}, ""},
		{[]int64{1, 2, 2, 5}, "duplicate identifier 2"},
		{[]int64{5, 1, 9, 1}, "duplicate identifier 1"},
	} {
		err := (&Topology{G: g, IDs: c.ids}).Validate()
		if c.dup == "" && err != nil {
			t.Fatalf("%v: %v", c.ids, err)
		}
		if c.dup != "" && (err == nil || !strings.Contains(err.Error(), c.dup)) {
			t.Fatalf("%v: err = %v, want %q", c.ids, err, c.dup)
		}
	}
}

// TestNodeInfoAndNeighborKnowledge checks every vertex's initial
// knowledge on every engine: its NodeInfo, and the neighbor IDs and labels
// in port order. The engine refills one pair of windows per factory call,
// so a graph mixing degrees (a hub, leaves, a path, an isolated vertex)
// with custom IDs and labels catches a window that is stale or cut at the
// wrong length.
func TestNodeInfoAndNeighborKnowledge(t *testing.T) {
	b := graph.NewBuilder(9)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {5, 6}, {6, 7}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild() // vertex 8 is isolated
	n := g.N()
	ids := make([]int64, n)
	labels := make([]int64, n)
	for v := range ids {
		ids[v] = int64(1000 - 37*v)
		labels[v] = int64(7 + 3*v)
	}
	topo := &Topology{G: g, IDs: ids, Labels: labels}
	type seen struct {
		info   NodeInfo
		nbrIDs []int64
		nbrLbl []int64
	}
	for _, eng := range []Engine{Sequential, ReverseSequential, Parallel} {
		got := make([]seen, n)
		f := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
			got[info.V] = seen{info, append([]int64(nil), nbrIDs...), append([]int64(nil), nbrLabels...)}
			return machineFunc(func(round int, in Inbox, out []Word) bool { return true })
		}
		if _, err := eng.Run(context.Background(), topo, f, 5); err != nil {
			t.Fatal(err)
		}
		for v, s := range got {
			want := NodeInfo{V: v, ID: ids[v], Label: labels[v], Degree: g.Degree(v), N: n, MaxDeg: 5}
			if s.info != want {
				t.Fatalf("engine %d, vertex %d: info %+v, want %+v", eng, v, s.info, want)
			}
			adj := g.Adj(v)
			if len(s.nbrIDs) != len(adj) || len(s.nbrLbl) != len(adj) {
				t.Fatalf("engine %d, vertex %d: %d IDs and %d labels for degree %d", eng, v, len(s.nbrIDs), len(s.nbrLbl), len(adj))
			}
			for p, a := range adj {
				if s.nbrIDs[p] != ids[a.To] || s.nbrLbl[p] != labels[a.To] {
					t.Fatalf("engine %d, vertex %d, port %d: knowledge (%d, %d), want (%d, %d)",
						eng, v, p, s.nbrIDs[p], s.nbrLbl[p], ids[a.To], labels[a.To])
				}
			}
		}
	}
}

// TestSetupBytesScaleWithVerticesNotArcs pins setup's footprint on a dense
// graph: the engine keeps per-vertex slabs and MaxDeg-slot scratch only,
// so a run on K_300 (89,700 arcs) allocates bytes on the order of
// n + MaxDeg, well below even one word per arc.
func TestSetupBytesScaleWithVerticesNotArcs(t *testing.T) {
	g := graph.Complete(300)
	topo := NewTopology(g)
	g.CSR() // the cached view is the graph's, not the run's
	halt := machineFunc(func(round int, in Inbox, out []Word) bool { return true })
	f := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine { return halt }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Sequential.Run(context.Background(), topo, f, 5); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	n, maxDeg, arcs := uint64(g.N()), uint64(g.MaxDegree()), uint64(g.CSR().NumArcs())
	if limit := 128 * (n + maxDeg); bytes > limit || bytes >= 8*arcs {
		t.Fatalf("a run on K_300 allocated %d bytes; want at most %d (128 per vertex and degree slot), below %d (one word per arc)",
			bytes, limit, 8*arcs)
	}
}

func TestStatsCombinators(t *testing.T) {
	a := Stats{Rounds: 5, Messages: 100}
	b := Stats{Rounds: 3, Messages: 50}
	if s := a.Seq(b); s.Rounds != 8 || s.Messages != 150 {
		t.Fatalf("Seq wrong: %+v", s)
	}
	if s := a.Par(b); s.Rounds != 5 || s.Messages != 150 {
		t.Fatalf("Par wrong: %+v", s)
	}
	if s := ParAll([]Stats{a, b, {Rounds: 9, Messages: 1}}); s.Rounds != 9 || s.Messages != 151 {
		t.Fatalf("ParAll wrong: %+v", s)
	}
	if s := ParAll(nil); s.Rounds != 0 || s.Messages != 0 {
		t.Fatalf("empty ParAll wrong: %+v", s)
	}
}

func TestHaltedVertexStopsSending(t *testing.T) {
	// Vertex with ID 0 halts immediately after sending once; its neighbor
	// must see the message in round 1 but nothing in round 2.
	g := graph.Path(2)
	var sawRound1, sawRound2 bool
	f := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		if info.ID == 0 {
			return machineFunc(func(round int, in Inbox, out []Word) bool {
				SendAllWords(out, 42)
				return true
			})
		}
		return machineFunc(func(round int, in Inbox, out []Word) bool {
			switch round {
			case 1:
				sawRound1 = in.Words()[0] != NoWord
				return false
			case 2:
				sawRound2 = in.Words()[0] != NoWord
				return true
			}
			return false
		})
	}
	if _, err := Sequential.Run(context.Background(), NewTopology(g), f, 10); err != nil {
		t.Fatal(err)
	}
	if !sawRound1 {
		t.Fatal("final message of halting vertex was not delivered")
	}
	if sawRound2 {
		t.Fatal("halted vertex message redelivered")
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(NewTopology(graph.Complete(10))) <= 0 {
		t.Fatal("round budget must be positive")
	}
}

// TestContextAbortsRun: engines check the context at every round boundary
// and abort with an error wrapping the cancellation cause.
func TestContextAbortsRun(t *testing.T) {
	g := rg(7, 40, 0.2)
	forever := func(info NodeInfo, nbrIDs, nbrLabels []int64) Machine {
		return machineFunc(func(round int, in Inbox, out []Word) bool { return false })
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []Engine{Sequential, Parallel, ReverseSequential} {
		stats, err := e.Run(ctx, NewTopology(g), forever, 1000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: want context.Canceled, got %v", e, err)
		}
		if stats.Rounds != 0 {
			t.Fatalf("engine %v ran %d rounds under a canceled context", e, stats.Rounds)
		}
	}
}
