package arbor

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// MergeSpec describes one invocation of the Lemma 5.1 procedure: color all
// currently uncolored edges crossing between the vertex sets A and B.
type MergeSpec struct {
	G *graph.Graph
	// RoleA / RoleB mark the two sides; vertices in neither are bystanders.
	// A vertex must not be in both.
	RoleA, RoleB []bool
	// EdgeColors holds the current (partial) edge coloring, −1 for
	// uncolored. Only uncolored A–B edges are assigned; everything else is
	// read-only context.
	EdgeColors []int64
	// D bounds the number of uncolored crossing edges at any A-vertex
	// (the paper's d); it determines the 2D+2 round schedule.
	D int
	// Palette is the color budget for the crossing edges: Lemma 5.1
	// guarantees feasibility when Palette ≥ Δ(B side) + D − 1.
	Palette int64
}

// MergeResult reports the updated coloring.
type MergeResult struct {
	// EdgeColors is the input array updated in place (returned for
	// convenience).
	EdgeColors []int64
	// Assigned counts newly colored edges.
	Assigned int
	Stats    sim.Stats
}

// Merge runs the Lemma 5.1 algorithm: every A-vertex labels its uncolored
// crossing edges 1…D; in sub-phase i the B-endpoint of every label-i edge
// picks a free color. Because each A-vertex activates at most one edge per
// sub-phase, and same-phase deciders at one B-vertex are handled by that
// single vertex, all assignments are conflict-free. Our message-passing
// realization spends two rounds per sub-phase (offer, reply) plus one role
// exchange: 2D+2 rounds, matching the paper's O(d).
func Merge(ctx context.Context, eng sim.Exec, spec MergeSpec) (*MergeResult, error) {
	eng = sim.OrSequential(eng)
	g := spec.G
	if len(spec.RoleA) != g.N() || len(spec.RoleB) != g.N() {
		return nil, fmt.Errorf("arbor: merge roles sized %d,%d for %d vertices", len(spec.RoleA), len(spec.RoleB), g.N())
	}
	if len(spec.EdgeColors) != g.M() {
		return nil, fmt.Errorf("arbor: merge has %d edge colors for %d edges", len(spec.EdgeColors), g.M())
	}
	if spec.D < 0 || spec.Palette < 1 {
		return nil, fmt.Errorf("arbor: merge D=%d palette=%d invalid", spec.D, spec.Palette)
	}
	for v := 0; v < g.N(); v++ {
		if spec.RoleA[v] && spec.RoleB[v] {
			return nil, fmt.Errorf("arbor: vertex %d in both roles", v)
		}
	}
	if spec.D == 0 {
		return &MergeResult{EdgeColors: spec.EdgeColors}, nil
	}
	run := newMergeRun(&spec)
	machines := make([]mergeMachine, g.N())
	factory := func(info sim.NodeInfo, nbrIDs, nbrLabels []int64) sim.Machine {
		mm := &machines[info.V]
		run.init(mm, info.V)
		return mm
	}
	stats, err := eng.Run(ctx, sim.NewTopology(g), factory, 2*spec.D+4)
	if err != nil {
		return nil, fmt.Errorf("arbor: merge: %w", err)
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		if run.errs[v] != nil {
			return nil, run.errs[v]
		}
		total += run.assigned[v]
	}
	return &MergeResult{EdgeColors: spec.EdgeColors, Assigned: total, Stats: stats}, nil
}

type mergeRole int

const (
	roleIdle mergeRole = iota
	roleA
	roleB
)

// Merge speaks three kinds of words: a role word (round 0), an offer, and
// a reply carrying the color the B-endpoint assigned. An offer is too wide
// for one word, so it travels as offerTag|v, a handle to the sender's
// entry of the run's offer table; colors and roles stay far below
// offerTag.
const offerTag sim.Word = 1 << 62

// mergeRun is the state one Merge execution shares among its machines.
// Each vertex writes only its own entries.
type mergeRun struct {
	g        *graph.Graph
	spec     *MergeSpec
	errs     []error
	assigned []int
	// offers is the payload table behind offer words: offers[v] holds the
	// colors on all edges of A-vertex v as of its latest offer. The sender
	// refills its entry in the round it sends; the receiver reads it in the
	// next round, before the sender's next offer (two rounds later)
	// overwrites it.
	offers [][]int64
	// The machines' working storage is carved from three slabs: offerSlab
	// and portSlab hold each A-vertex's offer entry and crossing ports
	// (deg slots each), bitSlab each B-vertex's two palette bitsets. The
	// next* cursors hand out windows as the factory meets the vertices.
	offerSlab           []int64
	portSlab            []int32
	bitSlab             []uint64
	nextA, nextB, words int
}

// newMergeRun sizes the slabs for spec's roles.
func newMergeRun(spec *MergeSpec) *mergeRun {
	g := spec.G
	n := g.N()
	degA, numB := 0, 0
	for v := 0; v < n; v++ {
		if spec.RoleA[v] {
			degA += g.Degree(v)
		} else if spec.RoleB[v] {
			numB++
		}
	}
	words := int((spec.Palette + 63) / 64)
	return &mergeRun{
		g:         g,
		spec:      spec,
		errs:      make([]error, n),
		assigned:  make([]int, n),
		offers:    make([][]int64, n),
		offerSlab: make([]int64, degA),
		portSlab:  make([]int32, degA),
		bitSlab:   make([]uint64, 2*numB*words),
		words:     words,
	}
}

// init sets up vertex v's machine: its role and its windows of the run's
// slabs.
func (run *mergeRun) init(mm *mergeMachine, v int) {
	spec := run.spec
	mm.run, mm.v, mm.role = run, v, roleIdle
	switch {
	case spec.RoleA[v]:
		mm.role = roleA
		lo := run.nextA
		run.nextA += run.g.Degree(v)
		run.offers[v] = run.offerSlab[lo:lo:run.nextA]
		mm.crossPorts = run.portSlab[lo:lo:run.nextA]
	case spec.RoleB[v]:
		mm.role = roleB
		lo := run.nextB
		run.nextB += 2 * run.words
		mm.myColors = run.bitSlab[lo : lo+run.words : lo+run.words]
		mm.offerScratch = run.bitSlab[lo+run.words : run.nextB : run.nextB]
	}
}

// mergeMachine is one vertex of the Lemma 5.1 program, carved from a
// per-run slab; its slices are windows of the run's slabs.
type mergeMachine struct {
	run  *mergeRun
	v    int
	role mergeRole

	// A-side state: ports of my uncolored crossing edges, label i = index
	// i−1.
	crossPorts []int32
	// B-side state: bitset palettes over [0, Palette) (colors at or above
	// the crossing palette can never be picked, so they are not tracked).
	// myColors marks the colors on my incident edges (kept fresh);
	// offerScratch marks one offer's colors during pickColor and is wiped
	// back to zero before the step returns.
	myColors     []uint64
	offerScratch []uint64
}

// WordBits implements sim.WordSizer: an offer costs one word per carried
// color (the Lemma 5.1 procedure is the one genuinely LOCAL-sized message
// in this codebase); role and reply words cost one word.
func (mm *mergeMachine) WordBits(w sim.Word) int64 {
	if w&offerTag != 0 {
		return 64 * int64(len(mm.run.offers[w&^offerTag]))
	}
	return 64
}

// markColor inserts c (which must be in [0, Palette)) into the bitset.
func markColor(set []uint64, c int64) {
	set[c>>6] |= 1 << (uint(c) & 63)
}

func (mm *mergeMachine) Step(round int, in sim.Inbox, out []sim.Word) bool {
	run := mm.run
	spec := run.spec
	adj := run.g.Adj(mm.v)
	switch {
	case round == 0:
		sim.SendAllWords(out, sim.Word(mm.role))
		return mm.role == roleIdle
	case round == 1 && mm.role == roleA:
		// Learn neighbor roles; label my uncolored crossing edges.
		roles := in.Words()
		for p, a := range adj {
			if spec.EdgeColors[a.Edge] < 0 && roles[p] == sim.Word(roleB) {
				mm.crossPorts = append(mm.crossPorts, int32(p))
			}
		}
		if len(mm.crossPorts) > spec.D {
			run.errs[mm.v] = fmt.Errorf("arbor: merge: vertex %d has %d crossing edges, bound D=%d", mm.v, len(mm.crossPorts), spec.D)
			return true
		}
		mm.sendOffer(0, out)
		return false
	case mm.role == roleA && round >= 2 && round%2 == 1:
		// Round 2i+1: record the reply for label i (i = (round−1)/2 ≥ 1),
		// then offer label i+1.
		i := (round - 1) / 2
		if i >= 1 && i <= len(mm.crossPorts) {
			p := mm.crossPorts[i-1]
			reply := in.Words()[p]
			if reply == sim.NoWord {
				run.errs[mm.v] = fmt.Errorf("arbor: merge: vertex %d missing reply for label %d", mm.v, i)
				return true
			}
			spec.EdgeColors[adj[p].Edge] = reply
		}
		if i >= len(mm.crossPorts) {
			return true // all my labels are colored
		}
		mm.sendOffer(i, out)
		return false
	case mm.role == roleB && round >= 2 && round%2 == 0:
		// Round 2i: process the offers of label i. Round 2 first marks
		// the colors already on my edges; the crossing edges I color are
		// marked as I pick them.
		if round == 2 {
			for _, a := range adj {
				if c := spec.EdgeColors[a.Edge]; c >= 0 && c < spec.Palette {
					markColor(mm.myColors, c)
				}
			}
		}
		for p, w := range in.Words() {
			if w == sim.NoWord || w&offerTag == 0 {
				continue
			}
			c, found := mm.pickColor(run.offers[w&^offerTag])
			if !found {
				run.errs[mm.v] = fmt.Errorf("arbor: merge: vertex %d found no free color below %d", mm.v, spec.Palette)
				return true
			}
			spec.EdgeColors[adj[p].Edge] = c
			markColor(mm.myColors, c)
			run.assigned[mm.v]++
			out[p] = c
		}
		if round >= 2*spec.D {
			return true // the last possible offer arrived this round
		}
		return false
	case mm.role == roleB || mm.role == roleA:
		// Off-cycle rounds: nothing to do, keep listening.
		return false
	default:
		return true
	}
}

// sendOffer emits the label-(i+1) offer: a handle to my offer-table entry,
// refilled with the colors of all my edges.
func (mm *mergeMachine) sendOffer(i int, out []sim.Word) {
	if i >= len(mm.crossPorts) {
		return
	}
	run := mm.run
	adj := run.g.Adj(mm.v)
	colors := run.offers[mm.v][:0] // a window of deg slots: appends stay in place
	for _, a := range adj {
		if c := run.spec.EdgeColors[a.Edge]; c >= 0 {
			colors = append(colors, c)
		}
	}
	run.offers[mm.v] = colors
	out[mm.crossPorts[i]] = offerTag | sim.Word(mm.v)
}

// pickColor returns the smallest color < Palette avoiding my colors and the
// offered colors, scanning the two bitset palettes word-wise.
func (mm *mergeMachine) pickColor(offered []int64) (int64, bool) {
	pal := mm.run.spec.Palette
	for _, c := range offered {
		if c >= 0 && c < pal {
			markColor(mm.offerScratch, c)
		}
	}
	picked, found := int64(0), false
	for w := range mm.myColors {
		if free := ^(mm.myColors[w] | mm.offerScratch[w]); free != 0 {
			c := int64(w)*64 + int64(bits.TrailingZeros64(free))
			if c < pal {
				picked, found = c, true
			}
			break
		}
	}
	for _, c := range offered {
		if c >= 0 && c < pal {
			mm.offerScratch[c>>6] = 0
		}
	}
	return picked, found
}
