package reduce

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/verify"
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

// greedySeed builds a proper coloring with a deliberately wasteful palette m
// by offsetting a greedy coloring into spread-out classes.
func greedySeed(g *graph.Graph, spread int64) ([]int64, int64) {
	colors := make([]int64, g.N())
	for i := range colors {
		colors[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		used := map[int64]bool{}
		for _, a := range g.Adj(v) {
			if colors[a.To] >= 0 {
				used[colors[a.To]] = true
			}
		}
		var c int64
		for used[c] {
			c++
		}
		colors[v] = c
	}
	for v := range colors {
		colors[v] *= spread
	}
	return colors, (int64(g.MaxDegree()) + 1) * spread
}

func TestTrimClasses(t *testing.T) {
	g := rg(2, 80, 0.1)
	seed, m := greedySeed(g, 7)
	target := int64(g.MaxDegree()) + 1
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := TrimClasses(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, target); err != nil {
		t.Fatal(err)
	}
	wantRounds := int(m-target) + 1
	if res.Stats.Rounds != wantRounds {
		t.Fatalf("rounds %d, want %d", res.Stats.Rounds, wantRounds)
	}
}

func TestTrimNoopWhenAlreadyBelowTarget(t *testing.T) {
	g := graph.Path(5)
	topo := &sim.Topology{G: g, Labels: []int64{0, 1, 0, 1, 0}}
	res, err := TrimClasses(context.Background(), sim.Sequential, topo, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 0 || res.Palette != 2 {
		t.Fatalf("expected zero-cost passthrough, got %+v", res)
	}
}

func TestTrimRejectsLowTarget(t *testing.T) {
	g := graph.Star(5)
	seed, m := greedySeed(g, 1)
	topo := &sim.Topology{G: g, Labels: seed}
	if _, err := TrimClasses(context.Background(), sim.Sequential, topo, m, int64(g.MaxDegree())); err == nil {
		t.Fatal("expected target<Δ+1 error")
	}
}

func TestTrimRejectsMissingLabels(t *testing.T) {
	g := graph.Path(3)
	if _, err := TrimClasses(context.Background(), sim.Sequential, sim.NewTopology(g), 5, 3); err == nil {
		t.Fatal("expected missing-labels error")
	}
}

func TestTrimRejectsOutOfRangeLabels(t *testing.T) {
	g := graph.Path(3)
	topo := &sim.Topology{G: g, Labels: []int64{0, 9, 0}}
	if _, err := TrimClasses(context.Background(), sim.Sequential, topo, 5, 3); err == nil {
		t.Fatal("expected label range error")
	}
}

func TestKuhnWattenhofer(t *testing.T) {
	g := rg(4, 100, 0.08)
	seed, m := greedySeed(g, 97) // large, wasteful palette
	target := int64(g.MaxDegree()) + 1
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, target); err != nil {
		t.Fatal(err)
	}
	// Round bound: |schedule| + 1 ≈ target·log₂(m/target) + 1; assert the
	// measured rounds match the derived schedule exactly and beat trimming.
	if int64(res.Stats.Rounds) >= m-target+1 {
		t.Fatalf("KW (%d rounds) not faster than trim (%d)", res.Stats.Rounds, m-target+1)
	}
}

func TestKWScheduleProperties(t *testing.T) {
	for _, tc := range []struct{ m, target int64 }{
		{100, 5}, {1000, 11}, {17, 8}, {64, 32}, {33, 16}, {4096, 7},
	} {
		plan := kwSchedule(tc.m, tc.target)
		if len(plan) == 0 {
			t.Fatalf("m=%d T=%d: empty plan", tc.m, tc.target)
		}
		// Phases end with renumber steps; last round must renumber.
		if !plan[len(plan)-1].renumberAfter {
			t.Fatalf("m=%d T=%d: plan does not end a phase", tc.m, tc.target)
		}
		// Round cost must be O(T·log(m/T)): generous constant-4 check.
		logRatio := 1
		for x := tc.m; x > tc.target; x /= 2 {
			logRatio++
		}
		if int64(len(plan)) > 4*tc.target*int64(logRatio) {
			t.Fatalf("m=%d T=%d: plan length %d exceeds O(T log(m/T))", tc.m, tc.target, len(plan))
		}
	}
}

func TestKWQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		g := rg(seed, n, 0.15)
		sd, m := greedySeed(g, 13)
		target := int64(g.MaxDegree()) + 1
		topo := &sim.Topology{G: g, Labels: sd}
		res, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, m, target)
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(30)
		g := rg(seed, n, 0.2)
		sd, m := greedySeed(g, 3)
		target := int64(g.MaxDegree()) + 1
		topo := &sim.Topology{G: g, Labels: sd}
		res, err := TrimClasses(context.Background(), sim.Sequential, topo, m, target)
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoPicksFaster(t *testing.T) {
	g := rg(9, 60, 0.15)
	target := int64(g.MaxDegree()) + 1

	// Small palette gap: trim should win.
	seedSmall, _ := greedySeed(g, 1)
	topo := &sim.Topology{G: g, Labels: seedSmall}
	resSmall, err := Auto(context.Background(), sim.Sequential, topo, target+3, target)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Stats.Rounds > 4 {
		t.Fatalf("small-gap Auto used %d rounds", resSmall.Stats.Rounds)
	}

	// Huge palette: KW should win; verify the result is still proper.
	seedBig, m := greedySeed(g, 1009)
	topo = &sim.Topology{G: g, Labels: seedBig}
	resBig, err := Auto(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, resBig.Colors, target); err != nil {
		t.Fatal(err)
	}
	if int64(resBig.Stats.Rounds) >= m-target {
		t.Fatal("Auto failed to pick KW for a large palette")
	}
}

func TestEstimateAutoRounds(t *testing.T) {
	if EstimateAutoRounds(10, 20) != 0 {
		t.Fatal("no reduction needed should cost 0")
	}
	if EstimateAutoRounds(25, 20) != 6 {
		t.Fatalf("small gap should use trim: got %d", EstimateAutoRounds(25, 20))
	}
	big := EstimateAutoRounds(1<<20, 8)
	if big <= 0 || big > 8*2*25 {
		t.Fatalf("big gap estimate out of range: %d", big)
	}
}

// TestKWEnginesAgree runs trim and KW on every engine. The grid is large
// enough for the Parallel engine to step several shards of machines carved
// from one slab, writing one shared color column (the race pass runs it).
func TestKWEnginesAgree(t *testing.T) {
	for _, g := range []*graph.Graph{rg(14, 90, 0.1), gen.Grid(30, 40)} {
		sd, m := greedySeed(g, 31)
		target := int64(g.MaxDegree()) + 1
		for _, alg := range []func(context.Context, sim.Exec, *sim.Topology, int64, int64) (*Result, error){KuhnWattenhofer, TrimClasses} {
			r1, err := alg(context.Background(), sim.Sequential, &sim.Topology{G: g, Labels: sd}, m, target)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []sim.Engine{sim.ReverseSequential, sim.Parallel} {
				r2, err := alg(context.Background(), eng, &sim.Topology{G: g, Labels: sd}, m, target)
				if err != nil {
					t.Fatal(err)
				}
				if r1.Stats != r2.Stats {
					t.Fatalf("engine %d: stats mismatch", eng)
				}
				for v := range r1.Colors {
					if r1.Colors[v] != r2.Colors[v] {
						t.Fatal("engine mismatch")
					}
				}
			}
		}
	}
}

// TestTrimSteadyStateAllocFree pins the ported trim program's contract on
// the sequential engine: the marginal cost of extra rounds is zero heap
// allocations. Differencing two runs that differ only in the declared
// palette m (the extra classes are empty, so the added rounds are pure
// steady state over identical machines) cancels the setup cost exactly.
func TestTrimSteadyStateAllocFree(t *testing.T) {
	g := rg(21, 300, 0.04)
	sd, m := greedySeed(g, 64)
	target := int64(g.MaxDegree()) + 1
	run := func(palette int64) {
		topo := &sim.Topology{G: g, Labels: sd}
		if _, err := TrimClasses(context.Background(), sim.Sequential, topo, palette, target); err != nil {
			t.Fatal(err)
		}
	}
	g.CSR() // build the cached view outside the measurement
	short := testing.AllocsPerRun(5, func() { run(m) })
	long := testing.AllocsPerRun(5, func() { run(m + 192) })
	// The marginal cost is a whole number of allocations per round;
	// sub-0.5 residue of either sign is runtime noise (GC, pools) leaking
	// into one of the two measurements.
	if per := (long - short) / 192; per >= 0.5 || per <= -0.5 {
		t.Fatalf("trim allocates per round: %.2f (%.1f vs %.1f over 192 extra rounds)", per, long, short)
	}
}

// TestKWSteadyStateAllocFree pins the same contract for the
// Kuhn–Wattenhofer program: a larger starting palette adds phases (more
// rounds over the same machines and stamped scratch) without adding
// steady-state allocations. The schedule itself grows with m, so the
// tolerated difference is the handful of setup allocations of the longer
// plan, bounded well below one allocation per extra round.
func TestKWSteadyStateAllocFree(t *testing.T) {
	g := rg(22, 300, 0.04)
	sd, m := greedySeed(g, 64)
	target := int64(g.MaxDegree()) + 1
	run := func(palette int64) {
		topo := &sim.Topology{G: g, Labels: sd}
		if _, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, palette, target); err != nil {
			t.Fatal(err)
		}
	}
	g.CSR()
	shortRounds := len(kwSchedule(m, target))
	longRounds := len(kwSchedule(4*m, target))
	short := testing.AllocsPerRun(5, func() { run(m) })
	long := testing.AllocsPerRun(5, func() { run(4 * m) })
	extraRounds := float64(longRounds - shortRounds)
	if long-short >= extraRounds {
		t.Fatalf("kw allocates per round: %.1f extra allocs over %.0f extra rounds (%.1f vs %.1f)",
			long-short, extraRounds, long, short)
	}
}

// TestSetupAllocsIndependentOfN pins the flat programs: a trim or KW run
// carves its machines from one slab and its colors from one column, and a
// recoloring finds its free slot in a stack bitset, so the number of heap
// allocations of a whole run is the same on n and on 4n vertices of equal
// Δ (equal palettes keep the round plans identical).
func TestSetupAllocsIndependentOfN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, alg := range []struct {
		name string
		run  func(context.Context, sim.Exec, *sim.Topology, int64, int64) (*Result, error)
	}{{"trim", TrimClasses}, {"kw", KuhnWattenhofer}} {
		allocs := func(rows int) float64 {
			g := gen.Grid(rows, 40)
			sd, m := greedySeed(g, 8)
			target := int64(g.MaxDegree()) + 1
			g.CSR()
			return testing.AllocsPerRun(5, func() {
				topo := &sim.Topology{G: g, Labels: sd}
				if _, err := alg.run(context.Background(), sim.Sequential, topo, m, target); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(10), allocs(40); small != large {
			t.Fatalf("%s allocates %.0f times on 400 vertices but %.0f on 1600", alg.name, small, large)
		}
	}
}

// TestSmallestFree pins the merged free-slot helper: the least offset in
// [0, limit) not carried by the inbox, relative to base, on the stack
// bitset and on the wide path, and without allocating on the stack path.
func TestSmallestFree(t *testing.T) {
	in := []sim.Word{sim.NoWord, 10, 12, 11, 3, 14, -5}
	if got := smallestFree(in, 10, 8); got != 13 {
		t.Fatalf("smallestFree(base 10) = %d, want 13", got)
	}
	if got := smallestFree(in, 0, 8); got != 0 {
		t.Fatalf("smallestFree(base 0) = %d, want 0", got)
	}
	wide := make([]sim.Word, 2*stackSpan)
	for p := range wide {
		wide[p] = sim.Word(100 + p)
	}
	wide[300] = sim.NoWord // offset 300 free, beyond the stack bitset
	if got := smallestFree(wide, 100, 1<<20); got != 400 {
		t.Fatalf("smallestFree(wide) = %d, want 400", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { smallestFree(in, 10, 8) }); allocs != 0 {
		t.Fatalf("smallestFree allocates %.1f per call on the stack path, want 0", allocs)
	}
}
