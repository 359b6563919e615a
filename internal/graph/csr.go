package graph

import "sync"

// CSR is the flat compressed-sparse-row view of a Graph: the arcs of vertex
// v occupy the index range [Off[v], Off[v+1]) of the parallel arrays To and
// Edge, in exactly the order of Adj(v) (so an index into the range is the
// vertex's port number). Mate closes the view under edge reversal: for the
// arc at index j (v → To[j] over edge Edge[j]), Mate[j] is the index of the
// opposite arc (To[j] → v over the same edge), which is precisely the inbox
// slot of To[j] fed by v. Mate is an involution: Mate[Mate[j]] == j.
//
// The view is built once per Graph and cached; all four slices are shared
// across callers and must be treated as read-only. The simulator's message
// plane (internal/sim) delivers through this view: a receiver's port j
// reads its sender To[j]'s broadcast word, or, for a sender whose ports
// carried different words, the slot Mate[j] of a slab indexed by arc.
type CSR struct {
	Off  []int32 // len N()+1; arcs of v are [Off[v], Off[v+1])
	To   []int32 // len 2·M(); neighbor endpoint of each arc
	Edge []int32 // len 2·M(); undirected edge identifier of each arc
	Mate []int32 // len 2·M(); index of the reverse arc
}

// NumArcs returns the number of directed arcs (2·M()).
func (c *CSR) NumArcs() int { return len(c.To) }

// Degree returns the degree of v (the width of its arc range).
func (c *CSR) Degree(v int) int { return int(c.Off[v+1] - c.Off[v]) }

// Range returns the arc index range of v: arcs [lo, hi).
func (c *CSR) Range(v int) (lo, hi int32) { return c.Off[v], c.Off[v+1] }

// csrCache holds the lazily built view. It lives in its own struct so that
// Graph construction sites never need to initialize it: the zero value is
// ready for use.
type csrCache struct {
	once sync.Once
	view *CSR
}

// CSR returns the flat view of g, building it on first use. The result is
// cached on the graph (graphs are immutable), so repeated calls return the
// same arrays; concurrent callers are safe.
func (g *Graph) CSR() *CSR {
	g.csr.once.Do(func() { g.csr.view = buildCSR(g) })
	return g.csr.view
}

func buildCSR(g *Graph) *CSR {
	n := g.N()
	arcs := 2 * g.M()
	c := &CSR{
		Off:  make([]int32, n+1),
		To:   make([]int32, arcs),
		Edge: make([]int32, arcs),
		Mate: make([]int32, arcs),
	}
	idx := int32(0)
	for v := 0; v < n; v++ {
		c.Off[v] = idx
		for _, a := range g.adj[v] {
			c.To[idx] = a.To
			c.Edge[idx] = a.Edge
			idx++
		}
	}
	c.Off[n] = idx
	// Each undirected edge appears as exactly two arcs; pair them up.
	first := make([]int32, g.M())
	for e := range first {
		first[e] = -1
	}
	for j := int32(0); j < idx; j++ {
		e := c.Edge[j]
		if first[e] < 0 {
			first[e] = j
		} else {
			c.Mate[j] = first[e]
			c.Mate[first[e]] = j
		}
	}
	return c
}
