// Package reduce implements distributed palette-reduction subroutines: the
// "basic reduction" the paper invokes for trimming a handful of excess
// colors (iterating over color classes, one round per dropped color), and
// the Kuhn–Wattenhofer halving reduction that brings a palette of size m
// down to T within O(T·log(m/T)) rounds. Together with package linial these
// form the repository's substitute for the black box [17]: same palettes,
// deterministic, with round complexity O(Δ log Δ + log* n) (see DESIGN.md
// §1.3 for the substitution rationale).
//
// Both programs run on any topology; callers use them for edge colorings by
// running them on the line-graph topology.
package reduce

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/util"
)

// Result is a reduced coloring plus its execution cost.
type Result struct {
	Colors  []int64
	Palette int64
	Stats   sim.Stats
}

// TrimClasses reduces the proper coloring given by the topology's labels
// from palette m to palette target, one color class per round: for
// c = m-1 … target, every vertex colored c simultaneously recolors to the
// smallest color in [0, target) unused by its neighbors. Requires
// target ≥ Δ+1. Cost: m − target + 1 rounds.
func TrimClasses(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	eng = sim.OrSequential(eng)
	if err := checkArgs(t, m, target); err != nil {
		return nil, err
	}
	if m <= target {
		return passThrough(t, m)
	}
	n := t.G.N()
	r := &trimRun{colors: make([]int64, n), m: m, target: target}
	machines := make([]trimMachine, n)
	factory := func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		r.colors[info.V] = info.Label
		tm := &machines[info.V]
		tm.run, tm.v = r, info.V
		return tm
	}
	stats, err := eng.Run(ctx, t, factory, int(m-target)+3)
	if err != nil {
		return nil, fmt.Errorf("reduce: trim: %w", err)
	}
	return &Result{Colors: r.colors, Palette: target, Stats: stats}, nil
}

// trimRun is the state one TrimClasses execution shares among its
// machines: colors[v] is vertex v's current color and, once the run ends,
// its result. Each machine writes only its own entry.
type trimRun struct {
	colors    []int64
	m, target int64
}

// trimMachine is one vertex of the trim program, carved from a per-run
// slab; its state is its colors entry.
type trimMachine struct {
	run *trimRun
	v   int
}

// Step implements sim.Machine: colors are single words.
//
//distcolor:noalloc
func (tm *trimMachine) Step(round int, in sim.Inbox, out []sim.Word) bool {
	r := tm.run
	color := &r.colors[tm.v]
	// Round r processes class m-r (r ≥ 1); round 0 only broadcasts.
	if round > 0 {
		class := r.m - int64(round)
		if *color == class {
			*color = smallestFree(in.Words(), 0, r.target)
		}
		if class == r.target {
			return true
		}
	}
	sim.SendAllWords(out, *color)
	return false
}

// stackSpan is the widest span smallestFree tracks in a stack bitset.
const stackSpan = 256

// smallestFree returns base + the least offset in [0, limit) such that
// base+offset appears in no inbox word. At most len(in) offsets can be
// occupied, so only the first len(in)+1 need tracking; up to stackSpan of
// them live in a stack bitset, and only vertices of higher degree
// allocate one.
//
//distcolor:noalloc
func smallestFree(in []sim.Word, base, limit int64) int64 {
	span := min(int64(len(in))+1, limit)
	var buf [stackSpan / 64]uint64
	seen := buf[:]
	if span > stackSpan {
		seen = wideBitset(span)
	}
	for _, c := range in {
		if off := c - base; c != sim.NoWord && off >= 0 && off < span {
			seen[off>>6] |= 1 << (uint64(off) & 63)
		}
	}
	return base + firstZero(seen, span)
}

// wideBitset allocates a bitset of span bits, for spans beyond the stack
// bitset of smallestFree.
func wideBitset(span int64) []uint64 {
	return make([]uint64, (span+63)/64)
}

// firstZero returns the least offset below span whose bit is clear in
// seen. It cannot fail while span exceeds the number of inbox words, which
// the callers' target ≥ Δ+1 guarantees; a full span panics out of line.
func firstZero(seen []uint64, span int64) int64 {
	for i, w := range seen {
		if w != ^uint64(0) {
			if off := int64(i)*64 + int64(bits.TrailingZeros64(^w)); off < span {
				return off
			}
			break
		}
	}
	panicFull(span)
	return 0
}

// panicFull reports a full span out of line, keeping the boxing of its
// arguments off the noalloc paths.
func panicFull(span int64) {
	panic(fmt.Sprintf("reduce: no free color among the %d candidates", span))
}

// KuhnWattenhofer reduces the proper coloring given by the topology's
// labels from palette m to palette target within O(target·log(m/target))
// rounds, by repeatedly splitting the palette into blocks of 2·target and
// reducing each block to target in parallel [Kuhn & Wattenhofer, PODC'06].
// Requires target ≥ Δ+1.
func KuhnWattenhofer(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	eng = sim.OrSequential(eng)
	if err := checkArgs(t, m, target); err != nil {
		return nil, err
	}
	if m <= target {
		return passThrough(t, m)
	}
	schedule := kwSchedule(m, target)
	n := t.G.N()
	r := &kwRun{colors: make([]int64, n), schedule: schedule}
	machines := make([]kwMachine, n)
	factory := func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		r.colors[info.V] = info.Label
		km := &machines[info.V]
		km.run, km.v = r, info.V
		return km
	}
	stats, err := eng.Run(ctx, t, factory, len(schedule)+3)
	if err != nil {
		return nil, fmt.Errorf("reduce: kw: %w", err)
	}
	return &Result{Colors: r.colors, Palette: target, Stats: stats}, nil
}

// kwRound is one round of the KW program: process class s (mod B) and, when
// the phase ends, renumber blocks of size B down to T.
type kwRound struct {
	b             int64 // block size of the current phase
	s             int64 // class processed this round (T ≤ s < B)
	t             int64 // target slots per block
	renumberAfter bool  // phase complete: apply c → (c/B)·T + (c mod B)
}

// kwSchedule derives the full deterministic round plan for reducing m → T.
func kwSchedule(m, t int64) []kwRound {
	var plan []kwRound
	for m > t {
		b := 2 * t
		if b > m {
			b = m // single partial block; plain class iteration within it
		}
		for s := b - 1; s >= t; s-- {
			plan = append(plan, kwRound{b: b, s: s, t: t})
		}
		plan[len(plan)-1].renumberAfter = true
		// New palette: full blocks contribute T each; a trailing partial
		// block of size ≤ T survives unchanged (its colors are < T within
		// the block).
		nb := m / b
		rem := m - nb*b
		if rem > t {
			rem = t
		}
		m = nb*t + rem
	}
	return plan
}

// kwRun is the state one KuhnWattenhofer execution shares among its
// machines: the round plan and the color column (see trimRun).
type kwRun struct {
	colors   []int64
	schedule []kwRound
}

// kwMachine is one vertex of the KW program, carved from a per-run slab.
type kwMachine struct {
	run *kwRun
	v   int
}

// Step implements sim.Machine.
//
//distcolor:noalloc
func (km *kwMachine) Step(round int, in sim.Inbox, out []sim.Word) bool {
	color := &km.run.colors[km.v]
	if round > 0 {
		schedule := km.run.schedule
		r := schedule[round-1]
		if *color%r.b == r.s {
			// Recolor into my block's first t slots, avoiding all neighbor
			// colors (which are fresh as of last round; concurrent
			// recolorers share my color class and are non-adjacent).
			*color = smallestFree(in.Words(), (*color/r.b)*r.b, r.t)
		}
		if r.renumberAfter {
			// Globally synchronized local renumbering; applied by everyone
			// to their own color. Neighbor colors received next round are
			// post-renumber, keeping views consistent.
			*color = (*color/r.b)*r.t + *color%r.b
		}
		if round == len(schedule) {
			return true
		}
	}
	sim.SendAllWords(out, *color)
	return false
}

// Auto reduces m → target choosing the cheaper of TrimClasses
// (m−target rounds) and KuhnWattenhofer (≈ target·log₂(m/target) rounds).
func Auto(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	if m <= target {
		return passThrough(t, m)
	}
	trimCost := m - target
	kwCost := int64(len(kwSchedule(m, target)))
	if kwCost < trimCost {
		return KuhnWattenhofer(ctx, eng, t, m, target)
	}
	return TrimClasses(ctx, eng, t, m, target)
}

func checkArgs(t *sim.Topology, m, target int64) error {
	if t.Labels == nil {
		return fmt.Errorf("reduce: topology has no seed coloring")
	}
	if target < int64(t.G.MaxDegree())+1 {
		return fmt.Errorf("reduce: target %d < Δ+1 = %d", target, t.G.MaxDegree()+1)
	}
	if target < 1 || m < 1 {
		return fmt.Errorf("reduce: invalid palettes m=%d target=%d", m, target)
	}
	for v := 0; v < t.G.N(); v++ {
		if t.Labels[v] < 0 || t.Labels[v] >= m {
			return fmt.Errorf("reduce: label %d of vertex %d outside palette [0,%d)", t.Labels[v], v, m)
		}
	}
	return nil
}

// passThrough returns the input coloring unchanged at zero cost.
func passThrough(t *sim.Topology, m int64) (*Result, error) {
	if t.Labels == nil {
		return nil, fmt.Errorf("reduce: topology has no seed coloring")
	}
	colors := make([]int64, t.G.N())
	copy(colors, t.Labels)
	return &Result{Colors: colors, Palette: m, Stats: sim.Stats{}}, nil
}

// EstimateAutoRounds predicts the round cost Auto will incur, used by
// planning code and documented bounds checks in tests.
func EstimateAutoRounds(m, target int64) int64 {
	if m <= target {
		return 0
	}
	trim := m - target + 1
	kw := int64(len(kwSchedule(m, target))) + 1
	return util.MinInt64(trim, kw)
}
