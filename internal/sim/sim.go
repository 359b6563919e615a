// Package sim is the synchronous message-passing runtime (the LOCAL model of
// §1.1 of the paper) on which every algorithm in this repository executes.
//
// A network is a Topology: a graph whose vertices are processors with
// distinct identifiers. An algorithm is a Factory producing one Machine per
// vertex; a Machine is a pure state machine advanced once per round. In each
// round every machine reads the words its neighbors sent in the previous
// round (one inbox slot per incident edge, NoWord where nothing was sent),
// updates local state, and writes outgoing words (one outbox slot per
// incident edge). The engine delivers outboxes to inboxes between rounds.
// Running time is the number of rounds until every machine has halted,
// exactly the paper's measure.
//
// Knowledge model: as is standard for deterministic LOCAL algorithms
// (KT1), a machine initially knows its own identifier, degree, the global
// parameters n and Δ, and its neighbors' identifiers and seed labels. All
// other information must travel over edges.
//
// Every message is one Word (words.go). A program whose messages are wider
// than a word sends a handle into storage it owns and reports the honest
// size through WordSizer, so Stats accounts the bits a real network would
// carry (the Lemma 5.1 merge in internal/arbor does this for its offers).
//
// Engine.Run is the single entry point. Its engines share one round loop
// and differ only in how a round visits the vertices: Sequential steps
// them in index order, ReverseSequential in reverse index order, and
// Parallel over contiguous vertex shards on their own goroutines with one
// barrier per round. Messages cross only between rounds and machines are
// pure functions of (state, inbox), so every engine produces a
// bit-identical execution; tests assert this.
//
// Data plane: the engines run over the graph's flat CSR view (graph.CSR).
// Inboxes and outboxes are flat []Word slabs with one slot per directed
// arc, allocated once per run; a vertex's buffers are the slab range given
// by the CSR offsets. Outboxes are double-buffered and swapped between
// rounds, and delivery is the Mate permutation, applied lazily while
// stepping each receiver (in[p] = prevOut[Mate[Off[v]+p]]). The round loop
// of the one-shard engines performs no heap allocations — see DESIGN.md
// §7–§8 and the allocation-regression tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// NodeInfo is the initial knowledge of a vertex (see the package comment).
type NodeInfo struct {
	V      int   // vertex index within the topology (engine bookkeeping)
	ID     int64 // unique identifier, the only identity algorithms should use
	Label  int64 // seed label (e.g. a proper coloring from an earlier phase); -1 if unset
	Degree int
	N      int // number of vertices in the topology (global knowledge)
	MaxDeg int // Δ of the topology (global knowledge)
}

// Machine is the per-vertex state machine of an algorithm. A machine that
// also implements WordSizer gets per-word bit accounting; every other
// machine's words are accounted as 64 bits each.
type Machine interface {
	// Step executes one synchronous round. in[p] holds the word sent by
	// the neighbor on port p in the previous round (NoWord if none, and on
	// round 0). The machine writes words into out[p] (pre-filled with
	// NoWord). Step returns true when the vertex halts; a halted machine is
	// never stepped again and sends nothing.
	Step(round int, in, out []Word) bool
}

// Factory creates the machine for one vertex. nbrIDs[p] and nbrLabels[p]
// are the identifier and seed label of the neighbor on port p. Both slices
// are read-only windows into engine-owned storage shared by all vertices
// of the run: machines must not modify them (copy first to mutate).
type Factory func(info NodeInfo, nbrIDs []int64, nbrLabels []int64) Machine

// Topology is a network: a graph plus per-vertex identifiers and optional
// seed labels.
type Topology struct {
	G *graph.Graph
	// IDs are the distinct vertex identifiers. nil means "use vertex index".
	IDs []int64
	// Labels are optional seed labels (§3 of the paper replaces IDs with a
	// precomputed O(Δ²)-coloring to avoid repeated log* n terms). nil means
	// "unset" (-1 is passed to machines).
	Labels []int64
}

// NewTopology wraps g with default identifiers 0..n-1.
func NewTopology(g *graph.Graph) *Topology { return &Topology{G: g} }

// ID returns the identifier of vertex v.
func (t *Topology) ID(v int) int64 {
	if t.IDs == nil {
		return int64(v)
	}
	return t.IDs[v]
}

// Label returns the seed label of v, or -1 when unset.
func (t *Topology) Label(v int) int64 {
	if t.Labels == nil {
		return -1
	}
	return t.Labels[v]
}

// Validate checks that identifiers are distinct.
func (t *Topology) Validate() error {
	if t.IDs != nil {
		if len(t.IDs) != t.G.N() {
			return fmt.Errorf("sim: %d IDs for %d vertices", len(t.IDs), t.G.N())
		}
		seen := make(map[int64]bool, len(t.IDs))
		for _, id := range t.IDs {
			if seen[id] {
				return fmt.Errorf("sim: duplicate identifier %d", id)
			}
			seen[id] = true
		}
	}
	if t.Labels != nil && len(t.Labels) != t.G.N() {
		return fmt.Errorf("sim: %d labels for %d vertices", len(t.Labels), t.G.N())
	}
	return nil
}

// Stats records the cost of an execution or of a composition of executions.
type Stats struct {
	Rounds   int
	Messages int64
	// Bits is the total traffic in bits under the WordSizer accounting.
	Bits int64
	// MaxMessageBits is the largest single message observed — the CONGEST
	// yardstick (CONGEST allows O(log n) bits per message per round).
	MaxMessageBits int64
	// CongestViolations counts executed rounds whose largest message
	// exceeded the attached bandwidth accountant's cap (bandwidth.go). It
	// is always 0 when no accountant with a cap is attached, so it is
	// omitted from JSON encodings unless someone is actually auditing.
	CongestViolations int64 `json:",omitempty"`
}

// Seq returns the cost of running s then o sequentially.
func (s Stats) Seq(o Stats) Stats {
	return Stats{
		Rounds:            s.Rounds + o.Rounds,
		Messages:          s.Messages + o.Messages,
		Bits:              s.Bits + o.Bits,
		MaxMessageBits:    maxI64(s.MaxMessageBits, o.MaxMessageBits),
		CongestViolations: s.CongestViolations + o.CongestViolations,
	}
}

// Par returns the cost of running s and o concurrently on (possibly
// overlapping) parts of the network: rounds take the maximum, messages add.
// This is the paper's accounting for "for each Gi in parallel do".
func (s Stats) Par(o Stats) Stats {
	r := s.Rounds
	if o.Rounds > r {
		r = o.Rounds
	}
	return Stats{
		Rounds:            r,
		Messages:          s.Messages + o.Messages,
		Bits:              s.Bits + o.Bits,
		MaxMessageBits:    maxI64(s.MaxMessageBits, o.MaxMessageBits),
		CongestViolations: s.CongestViolations + o.CongestViolations,
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ParAll folds Par over a set of concurrent executions.
func ParAll(all []Stats) Stats {
	var acc Stats
	for _, s := range all {
		acc = acc.Par(s)
	}
	return acc
}

// ErrRoundLimit is returned when an execution exceeds its round budget,
// which in this codebase always indicates an algorithm bug (deadlock or
// non-termination), not an expected condition.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// Exec runs a node program to global termination. Engine values implement
// it; Observed wraps an Engine with a per-round hook. Algorithm packages
// accept an Exec so callers can observe every constituent execution of a
// composed algorithm without the algorithms knowing.
//
// Cancellation is ctx-native: every engine checks ctx at each round
// boundary and aborts with an error wrapping context.Cause(ctx), so
// deadlines and cancellation propagate through arbitrarily deep algorithm
// compositions without observer-based plumbing.
type Exec interface {
	Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error)
}

// OrSequential normalizes a possibly-nil Exec (the zero value of an Options
// struct holding an Exec interface) to the Sequential engine.
func OrSequential(e Exec) Exec {
	if e == nil {
		return Sequential
	}
	return e
}

// RoundEvent describes one executed round of one execution, delivered to a
// RoundHook. Stats are cumulative for that execution.
type RoundEvent struct {
	// Round is the 0-based index of the round that just executed.
	Round int
	// Running is the number of machines still running after the round.
	Running int
	// N is the vertex count of the execution's topology. Composed
	// algorithms run many executions, often on subtopologies; N lets an
	// observer tell them apart.
	N int
	// Stats is the cumulative cost of this execution so far.
	Stats Stats
	// RoundBits is the total traffic of this round alone (the per-round
	// bandwidth view; Stats.Bits is the cumulative sum).
	RoundBits int64
	// RoundMaxBits is the largest single message of this round — the
	// bandwidth of the round's hottest edge, 0 in a silent round. Observers
	// histogram it to see CONGEST behavior over time.
	RoundMaxBits int64
}

// RoundHook observes rounds as they execute. It is purely a tracing
// mechanism: hooks cannot abort a run (cancel the execution's context to do
// that).
type RoundHook func(RoundEvent)

// Observed returns an Exec that runs like base but calls hook after every
// executed round. A nil hook returns base unchanged.
func Observed(base Engine, hook RoundHook) Exec {
	return Instrumented(base, hook, nil)
}

// Instrumented returns an Exec that runs like base, calling hook after
// every executed round (nil: no hook) and feeding every round to the
// bandwidth accountant bw (nil: no accounting). Because composed
// algorithms thread the Exec they are given to all their sub-executions,
// attaching an accountant here accounts the whole composition.
func Instrumented(base Engine, hook RoundHook, bw *Bandwidth) Exec {
	if hook == nil && bw == nil {
		return base
	}
	return observedExec{base: base, hook: hook, bw: bw}
}

type observedExec struct {
	base Engine
	hook RoundHook
	bw   *Bandwidth
}

func (o observedExec) Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error) {
	return o.base.run(ctx, t, f, maxRounds, o.hook, o.bw)
}

// instance holds the shared execution state of one run.
//
// The message plane is laid out over the graph's CSR view (graph.CSR):
// flat []Word slabs with one slot per directed arc. Vertex v's buffers are
// the slab range [Off[v], Off[v+1]) — the port order of Adj(v) — so
// handing a machine its buffers is a slice expression, not an allocation.
//
// Outboxes are double-buffered: machines write outs[round%2] while reading
// (through the inbox) what the previous round wrote into the other slab.
// Delivery is the Mate permutation — the word arriving on v's port p is
// whatever the neighbor wrote on the opposite arc Mate[Off[v]+p] — applied
// lazily when a vertex is stepped: its inbox window of the in slab is
// materialized from the previous out slab right before Step, while the
// slots are about to be read anyway. There is no separate delivery pass,
// halted vertices' dead inboxes are never materialized, and the buffer
// swap is a parity flip. All slabs are allocated once per run; the round
// loop performs no heap allocations.
type instance struct {
	csr      *graph.CSR
	machines []Machine
	// sizers holds each machine's WordSizer (nil entries use the default
	// 64-bit accounting), asserted once so the hot loop does not.
	sizers    []WordSizer
	done      []bool
	remaining int
	// in is the inbox slab; outs are the double-buffered outbox slabs,
	// alternating by round parity.
	in   []Word
	outs [2][]Word
	// shards partition the vertices into the contiguous ranges a round
	// steps, one goroutine each when there is more than one; reverse
	// visits each range from its highest index down. One-shard engines
	// use the one array, so they allocate no shard slice.
	shards  []shard
	one     [1]shard
	reverse bool
}

// shard is one contiguous vertex range [lo, hi) of a round, with what
// stepping it produced. newly and pending are windows of capacity hi-lo
// (so appends never allocate) into two instance-wide halt slabs: the
// vertices of the range that halted in the current and in the previous
// round, which retireRound drains.
type shard struct {
	lo, hi  int
	newly   []int32
	pending []int32
	sent    sendStats
}

func newInstance(t *Topology, f Factory, shards int, reverse bool) (*instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g := t.G
	n := g.N()
	csr := g.CSR()
	arcs := csr.NumArcs()
	inst := &instance{
		csr:       csr,
		machines:  make([]Machine, n),
		sizers:    make([]WordSizer, n),
		done:      make([]bool, n),
		remaining: n,
		in:        make([]Word, arcs),
		outs:      [2][]Word{make([]Word, arcs), make([]Word, arcs)},
		reverse:   reverse,
	}
	for _, slab := range [...][]Word{inst.in, inst.outs[0], inst.outs[1]} {
		for j := range slab {
			slab[j] = NoWord
		}
	}
	newly, pending := make([]int32, n), make([]int32, n)
	inst.shards = inst.one[:0]
	if shards > 1 {
		inst.shards = make([]shard, 0, shards)
	}
	// Contiguous ranges of chunk vertices; an empty topology still gets
	// its one (empty) shard.
	chunk := (n + shards - 1) / shards
	for lo := 0; len(inst.shards) == 0 || lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		inst.shards = append(inst.shards, shard{lo: lo, hi: hi, newly: newly[lo:lo:hi], pending: pending[lo:lo:hi]})
	}
	// Neighbor knowledge is carved from two flat slabs by the same CSR
	// offsets as the message plane. Machines must treat the slices as
	// read-only (they are windows into shared storage).
	nbrIDs := make([]int64, arcs)
	nbrLabels := make([]int64, arcs)
	for j, u := range csr.To {
		nbrIDs[j] = t.ID(int(u))
		if t.Labels == nil {
			nbrLabels[j] = -1
		} else {
			nbrLabels[j] = t.Labels[u]
		}
	}
	maxDeg := g.MaxDegree()
	for v := 0; v < n; v++ {
		lo, hi := csr.Range(v)
		info := NodeInfo{
			V:      v,
			ID:     t.ID(v),
			Label:  t.Label(v),
			Degree: int(hi - lo),
			N:      n,
			MaxDeg: maxDeg,
		}
		m := f(info, nbrIDs[lo:hi:hi], nbrLabels[lo:hi:hi])
		inst.machines[v] = m
		if s, ok := m.(WordSizer); ok {
			inst.sizers[v] = s
		}
	}
	return inst, nil
}

// sendStats aggregates the traffic some vertices emitted in one round.
type sendStats struct {
	msgs    int64
	bits    int64
	maxBits int64
}

func (a *sendStats) add(b sendStats) {
	a.msgs += b.msgs
	a.bits += b.bits
	if b.maxBits > a.maxBits {
		a.maxBits = b.maxBits
	}
}

// stepVertex advances one machine and returns its emitted traffic plus
// whether the vertex halted during this call. The inbox window is
// materialized from the previous round's outbox slab through the Mate
// permutation (this IS message delivery — fused into the step so the slots
// are written right before Step reads them), the current outbox window is
// cleared to NoWord per the Machine contract, and the emitted slots are
// scanned for Stats while still hot.
//
//distcolor:noalloc
func (inst *instance) stepVertex(v, round int) (sendStats, bool) {
	if inst.done[v] {
		return sendStats{}, false
	}
	prevOut, curOut := inst.outs[(round&1)^1], inst.outs[round&1]
	lo, hi := inst.csr.Range(v)
	mate := inst.csr.Mate[lo:hi:hi]
	in := inst.in[lo:hi:hi]
	out := curOut[lo:hi:hi]
	for p := range in {
		in[p] = prevOut[mate[p]]
		out[p] = NoWord
	}
	halted := inst.machines[v].Step(round, in, out)
	if halted {
		inst.done[v] = true
	}
	var st sendStats
	sz := inst.sizers[v]
	for _, w := range out {
		if w == NoWord {
			continue
		}
		st.msgs++
		b := int64(64)
		if sz != nil {
			b = sz.WordBits(w)
		}
		st.bits += b
		if b > st.maxBits {
			st.maxBits = b
		}
	}
	return st, halted
}

// stepShard steps every vertex of one shard in the instance's visit order.
// It writes only its own vertices' inbox and outbox regions and its own
// shard, so shards of one round may run concurrently.
func (inst *instance) stepShard(s *shard, round int) {
	var sent sendStats
	newly := s.newly
	v, end, dir := s.lo, s.hi, 1
	if inst.reverse {
		v, end, dir = s.hi-1, s.lo-1, -1
	}
	for ; v != end; v += dir {
		st, halted := inst.stepVertex(v, round)
		sent.add(st)
		if halted {
			newly = append(newly, int32(v))
		}
	}
	s.sent, s.newly = sent, newly
}

// stepRound steps every shard once: inline for one shard, else one
// goroutine per shard behind a single barrier. A worker materializes
// inboxes from the previous round's outbox slab, which is frozen during
// the round, so one barrier per round is all the fused data plane needs.
func (inst *instance) stepRound(round int) {
	if len(inst.shards) == 1 {
		inst.stepShard(&inst.shards[0], round)
		return
	}
	var wg sync.WaitGroup
	for i := range inst.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			inst.stepShard(s, round)
		}(&inst.shards[i])
	}
	wg.Wait()
}

// retireRound runs at the end of each round, after the slab the round read
// from (its prevOut) has been fully consumed, and clears in that slab the
// outbox regions of the vertices that halted this round (killing their
// stale next-to-last messages) and of those that halted last round
// (killing their just-consumed final messages). After its two passes over
// a halted vertex the vertex's region is silent in both slabs and is never
// written again, so inbox materialization reads silence from it forever —
// the cost is O(deg) once per vertex, not per round.
//
//distcolor:noalloc
func (inst *instance) retireRound(round int) {
	consumed := inst.outs[(round&1)^1]
	for i := range inst.shards {
		s := &inst.shards[i]
		inst.silence(consumed, s.newly)
		inst.silence(consumed, s.pending)
		s.pending, s.newly = s.newly, s.pending[:0]
	}
}

// silence clears the outbox regions of vs in slab.
//
//distcolor:noalloc
func (inst *instance) silence(slab []Word, vs []int32) {
	for _, v := range vs {
		lo, hi := inst.csr.Range(int(v))
		for j := lo; j < hi; j++ {
			slab[j] = NoWord
		}
	}
}

// abortErr is the engine's error for a run cut short by its context; it
// wraps context.Cause(ctx) so errors.Is(err, context.Canceled) (and
// DeadlineExceeded, and any WithCancelCause cause) keep working through the
// algorithm layers above.
func abortErr(ctx context.Context, round, remaining int) error {
	return fmt.Errorf("sim: aborted at round %d (%d vertices still running): %w", round, remaining, context.Cause(ctx))
}

// stepGrain is the parallel engine's shard grain, tuned on the flat data
// plane: one worker per at least this many vertices.
const stepGrain = 256

// shardWorkers sizes a shard pass: at most one worker per grain units of
// work, capped at NumCPU, at least one. A shard must carry enough vertices
// for its goroutine spawn plus barrier share (on the order of a
// microsecond) to pay for itself, so small topologies run on one shard.
func shardWorkers(work, grain int) int {
	w := runtime.NumCPU()
	if byGrain := work / grain; w > byGrain {
		w = byGrain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engine selects an execution engine; the zero value is the sequential one.
type Engine int

const (
	// Sequential steps vertices in index order on the calling goroutine.
	Sequential Engine = iota
	// Parallel steps contiguous vertex shards on their own goroutines.
	Parallel
	// ReverseSequential steps vertices in reverse index order. Synchronous
	// message passing makes the in-round order semantically irrelevant;
	// this engine exists to *prove* that — any program whose results
	// depend on intra-round scheduling (e.g. by leaking state through
	// shared memory mid-round) diverges from Sequential under test.
	ReverseSequential
)

// Run executes the algorithm to global termination on the selected engine.
func (e Engine) Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error) {
	return e.run(ctx, t, f, maxRounds, nil, nil)
}

// run is the round loop of every engine, shared by Engine.Run and
// Instrumented wrappers: the engine only chooses the shard count and the
// visit order.
func (e Engine) run(ctx context.Context, t *Topology, f Factory, maxRounds int, hook RoundHook, bw *Bandwidth) (Stats, error) {
	n := t.G.N()
	shards := 1
	if e == Parallel {
		shards = shardWorkers(n, stepGrain)
	}
	inst, err := newInstance(t, f, shards, e == ReverseSequential)
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	for round := 0; inst.remaining > 0; round++ {
		if ctx.Err() != nil {
			return stats, abortErr(ctx, round, inst.remaining)
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w after %d rounds (%d vertices still running)", ErrRoundLimit, round, inst.remaining)
		}
		inst.stepRound(round)
		var sent sendStats
		for i := range inst.shards {
			inst.remaining -= len(inst.shards[i].newly)
			sent.add(inst.shards[i].sent)
		}
		stats.Messages += sent.msgs
		stats.Bits += sent.bits
		stats.MaxMessageBits = max(stats.MaxMessageBits, sent.maxBits)
		if bw != nil {
			stats.CongestViolations += bw.roundDone(sent.bits, sent.maxBits)
		}
		inst.retireRound(round)
		stats.Rounds++
		if hook != nil {
			hook(RoundEvent{Round: round, Running: inst.remaining, N: n, Stats: stats,
				RoundBits: sent.bits, RoundMaxBits: sent.maxBits})
		}
	}
	return stats, nil
}

// DefaultMaxRounds returns a generous round budget for a topology: all
// algorithms here are polylogarithmic or poly-Δ, so 64·(Δ²+log²n+64) rounds
// only trips on genuine non-termination.
func DefaultMaxRounds(t *Topology) int {
	n := t.G.N()
	d := t.G.MaxDegree()
	logn := 1
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	return 64 * (d*d + logn*logn + 64)
}
