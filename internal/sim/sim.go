// Package sim is the synchronous message-passing runtime (the LOCAL model of
// §1.1 of the paper) on which every algorithm in this repository executes.
//
// A network is a Topology: a graph whose vertices are processors with
// distinct identifiers. An algorithm is a Factory producing one Machine per
// vertex; a Machine is a pure state machine advanced once per round. In each
// round every machine may read the words its neighbors sent in the previous
// round (through its Inbox: one slot per incident edge, NoWord where nothing
// was sent), updates local state, and writes outgoing words (one outbox slot
// per incident edge). The engine delivers outboxes to inboxes between
// rounds. Running time is the number of rounds until every machine has
// halted, exactly the paper's measure.
//
// Knowledge model: as is standard for deterministic LOCAL algorithms
// (KT1), a machine initially knows its own identifier, degree, the global
// parameters n and Δ, and its neighbors' identifiers and seed labels. All
// other information must travel over edges. The engine hands the
// neighbors' identifiers and labels to the Factory in two MaxDeg-slot
// windows that it refills for every vertex, so they are valid only during
// that call, so the engine's setup allocates nothing per arc.
//
// Programs are flat: the repository's factories carve every machine of a
// run from one slab and keep per-vertex state in columns owned by the run,
// so a run allocates O(1) objects however many vertices it has — see
// DESIGN.md §8.
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
// Almost every program sends one word to all of its neighbors, so a
// round's output is stored per vertex: two parity slabs hold each vertex's
// broadcast word (NoWord for silence). A vertex whose ports carry
// different words stores the reserved portWord instead and its words go to
// a per-arc slab, allocated on a run's first such send. A machine writes
// into a per-shard scratch outbox; the scan after Step counts the traffic
// and picks the representation. Delivery is pulled: Inbox.Words gathers
// the receiver's window from the neighbors' broadcast words (To[j]) and
// falls back to the per-arc slab (through Mate) only for per-port senders,
// so a machine that does not read its inbox in a round costs nothing to
// deliver to. The round loop of the one-shard engines performs no heap
// allocations — see DESIGN.md §7–§8 and the allocation-regression tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// Step executes one synchronous round. in delivers, on demand, the
	// words the neighbors sent in the previous round (see Inbox). The
	// machine writes words into out[p] (pre-filled with NoWord), one slot
	// per port, so its degree is len(out). Step returns true when the
	// vertex halts; a halted machine is never stepped again and sends
	// nothing.
	Step(round int, in Inbox, out []Word) bool
}

// Inbox is a machine's view of the words its neighbors sent in the
// previous round. Nothing is gathered until Words is called, so a machine
// that does not need its inbox in a round does not pay for delivery.
type Inbox struct {
	inst *instance
	// buf is the stepping shard's scratch (MaxDeg slots), or, for an inbox
	// built from fixed words in tests, the words themselves.
	buf []Word
	v   int
}

// Words returns the inbox: element p is the word sent by the neighbor on
// port p in the previous round (NoWord if none, and on round 0). The slice
// is scratch owned by the engine: it is valid only during the Step call
// that received the Inbox, and the next call to Words overwrites it.
//
//distcolor:noalloc
func (in Inbox) Words() []Word {
	inst := in.inst
	if inst == nil {
		return in.buf
	}
	prev := inst.round&1 ^ 1
	lo, hi := inst.csr.Range(in.v)
	to := inst.csr.To[lo:hi:hi]
	bc := inst.bc[prev]
	buf := in.buf[:len(to):len(to)]
	for p, u := range to {
		w := bc[u]
		if w == portWord {
			w = inst.ports[prev][inst.csr.Mate[int(lo)+p]]
		}
		buf[p] = w
	}
	return buf
}

// Factory creates the machine for one vertex; the engine calls it once per
// vertex, before round 0. nbrIDs[p] and nbrLabels[p] are the identifier and
// seed label of the neighbor on port p. Both slices are engine-owned
// windows that the engine refills for the next vertex: they are valid only
// during the call, so a machine that needs them later must copy them.
// Factories must not modify them. A factory may return a pointer into a
// slab of machines it allocated once for the whole run.
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

// Validate checks that identifiers are distinct. Strictly increasing
// identifiers (the common case: line-graph topologies number vertices by
// sorted edge) are distinct by one scan; any other order is checked on a
// sorted copy.
func (t *Topology) Validate() error {
	if t.IDs != nil {
		if len(t.IDs) != t.G.N() {
			return fmt.Errorf("sim: %d IDs for %d vertices", len(t.IDs), t.G.N())
		}
		if !increasing(t.IDs) {
			ids := slices.Clone(t.IDs)
			slices.Sort(ids)
			for i := 1; i < len(ids); i++ {
				if ids[i] == ids[i-1] {
					return fmt.Errorf("sim: duplicate identifier %d", ids[i])
				}
			}
		}
	}
	if t.Labels != nil && len(t.Labels) != t.G.N() {
		return fmt.Errorf("sim: %d labels for %d vertices", len(t.Labels), t.G.N())
	}
	return nil
}

// increasing reports whether ids is strictly increasing.
func increasing(ids []int64) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
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
// A round's output is stored per vertex, not per arc. bc holds two parity
// slabs of broadcast words: machines of round r write bc[r%2] while their
// inboxes read bc[(r+1)%2], what the previous round wrote. A vertex whose
// ports all carry the same word w (silence included, as NoWord) stores w;
// any other vertex stores portWord and copies its window into the per-arc
// slab ports[r%2], laid out over the CSR offsets (vertex v's ports are
// [Off[v], Off[v+1])). Delivery is pulled by Inbox.Words: the word on v's
// port p is bc[prev][To[Off[v]+p]], or, for a portWord sender, the slot of
// the opposite arc Mate[Off[v]+p] in ports[prev]. The per-arc slabs are
// allocated on a run's first per-port send, so a run that only broadcasts
// never allocates them; they are never cleared, because a slot is read
// only in the round after its sender wrote its whole window. All other
// state is allocated once per run; the round loop performs no heap
// allocations.
type instance struct {
	csr      *graph.CSR
	machines []Machine
	// sizers holds each machine's WordSizer (nil entries use the default
	// 64-bit accounting), asserted once so the hot loop does not. It is
	// allocated on the first machine that has one, so a run of a program
	// without a WordSizer leaves it nil.
	sizers    []WordSizer
	done      []bool
	remaining int
	// round is the round being stepped; shards only read it.
	round int
	// bc are the broadcast-word slabs (one word per vertex) and ports the
	// per-arc slabs, both alternating by round parity; portsOnce guards
	// the lazy allocation of ports.
	bc        [2][]Word
	ports     [2][]Word
	portsOnce sync.Once
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
// round, which retireRound drains. in and out are the shard's MaxDeg-slot
// inbox and outbox scratch, reused by every vertex it steps.
type shard struct {
	lo, hi  int
	newly   []int32
	pending []int32
	sent    sendStats
	in, out []Word
	// fault is the lowest vertex of the range that sent portWord, or -1;
	// the round loop turns it into the run's error.
	fault int
}

func newInstance(t *Topology, f Factory, shards int, reverse bool) (*instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g := t.G
	n := g.N()
	csr := g.CSR()
	inst := &instance{
		csr:       csr,
		machines:  make([]Machine, n),
		done:      make([]bool, n),
		remaining: n,
		bc:        [2][]Word{make([]Word, n), make([]Word, n)},
		reverse:   reverse,
	}
	for _, slab := range inst.bc {
		for v := range slab {
			slab[v] = NoWord
		}
	}
	maxDeg := g.MaxDegree()
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
		inst.shards = append(inst.shards, shard{
			lo: lo, hi: hi, newly: newly[lo:lo:hi], pending: pending[lo:lo:hi],
			in: make([]Word, maxDeg), out: make([]Word, maxDeg), fault: -1,
		})
	}
	// Neighbor knowledge is gathered per vertex into two MaxDeg-slot
	// windows right before its factory call and reused for the next
	// vertex, so setup allocates no per-arc storage.
	nbrIDs := make([]int64, maxDeg)
	nbrLabels := make([]int64, maxDeg)
	for v := 0; v < n; v++ {
		lo, hi := csr.Range(v)
		deg := int(hi - lo)
		ids, labels := nbrIDs[:deg:deg], nbrLabels[:deg:deg]
		for p, u := range csr.To[lo:hi] {
			ids[p], labels[p] = t.ID(int(u)), t.Label(int(u))
		}
		info := NodeInfo{
			V:      v,
			ID:     t.ID(v),
			Label:  t.Label(v),
			Degree: deg,
			N:      n,
			MaxDeg: maxDeg,
		}
		m := f(info, ids, labels)
		inst.machines[v] = m
		if s, ok := m.(WordSizer); ok {
			if inst.sizers == nil {
				inst.sizers = make([]WordSizer, n)
			}
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

// stepVertex advances one machine on shard s and returns its emitted
// traffic plus whether the vertex halted during this call. The machine
// writes into the shard's outbox scratch, cleared to NoWord per the
// Machine contract; the scan that accounts the emitted words for Stats
// also decides how they are stored: a word carried by every port goes to
// the broadcast slab (d ports of word w count d messages of bits(w) each,
// as if stored per arc), anything else goes to the per-arc slab behind
// portWord. A vertex that sends portWord itself is recorded as the
// shard's fault, which fails the run at the end of the round.
//
//distcolor:noalloc
func (inst *instance) stepVertex(s *shard, v, round int) (sendStats, bool) {
	if inst.done[v] {
		return sendStats{}, false
	}
	lo, hi := inst.csr.Range(v)
	out := s.out[: hi-lo : hi-lo]
	for p := range out {
		out[p] = NoWord
	}
	halted := inst.machines[v].Step(round, Inbox{inst: inst, buf: s.in, v: v}, out)
	if halted {
		inst.done[v] = true
	}
	cur := round & 1
	var sz WordSizer
	if inst.sizers != nil {
		sz = inst.sizers[v]
	}
	first := NoWord
	if len(out) > 0 {
		first = out[0]
	}
	uniform := true
	for _, w := range out {
		if w != first {
			uniform = false
			break
		}
	}
	var st sendStats
	if uniform {
		if first == portWord {
			s.noteFault(v)
			return st, halted
		}
		inst.bc[cur][v] = first
		if first == NoWord {
			return st, halted
		}
		b := wordBits(sz, first)
		d := int64(len(out))
		return sendStats{msgs: d, bits: d * b, maxBits: b}, halted
	}
	inst.bc[cur][v] = portWord
	copy(inst.portSlab(cur)[lo:hi], out)
	for _, w := range out {
		if w == NoWord {
			continue
		}
		if w == portWord {
			s.noteFault(v)
			return sendStats{}, halted
		}
		st.msgs++
		b := wordBits(sz, w)
		st.bits += b
		if b > st.maxBits {
			st.maxBits = b
		}
	}
	return st, halted
}

// wordBits is the accounted size of w: sz's report, or one 64-bit word
// when the machine has no WordSizer.
func wordBits(sz WordSizer, w Word) int64 {
	if sz == nil {
		return 64
	}
	return sz.WordBits(w)
}

// noteFault records that vertex v of the shard sent portWord. The lowest
// such vertex is kept, so every engine reports the same one.
func (s *shard) noteFault(v int) {
	if s.fault < 0 || v < s.fault {
		s.fault = v
	}
}

// portSlab returns the per-arc slab of parity cur, allocating both per-arc
// slabs on the run's first per-port send. Parallel shards may reach it in
// the same round; the Once serializes the allocation and orders it before
// every later read of ports (readers in later rounds are ordered by the
// round barrier).
func (inst *instance) portSlab(cur int) []Word {
	inst.portsOnce.Do(func() {
		arcs := inst.csr.NumArcs()
		inst.ports = [2][]Word{make([]Word, arcs), make([]Word, arcs)}
	})
	return inst.ports[cur]
}

// stepShard steps every vertex of one shard in the instance's visit order.
// It writes only its own vertices' slab entries and its own shard, so
// shards of one round may run concurrently.
func (inst *instance) stepShard(s *shard, round int) {
	var sent sendStats
	newly := s.newly
	v, end, dir := s.lo, s.hi, 1
	if inst.reverse {
		v, end, dir = s.hi-1, s.lo-1, -1
	}
	for ; v != end; v += dir {
		st, halted := inst.stepVertex(s, v, round)
		sent.add(st)
		if halted {
			newly = append(newly, int32(v))
		}
	}
	s.sent, s.newly = sent, newly
}

// stepRound steps every shard once: inline for one shard, else one
// goroutine per shard behind a single barrier. Inboxes read only the slabs
// of the previous round, which are frozen during the round, so one barrier
// per round is all the data plane needs.
func (inst *instance) stepRound(round int) {
	inst.round = round
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
// from (its prev parity) has been fully consumed, and clears in that slab
// the broadcast words of the vertices that halted this round (their stale
// next-to-last words) and of those that halted last round (their
// just-consumed final words). After these two writes a halted vertex is
// silent in both parities and is never written again: O(1) per vertex.
// Its per-arc slots need no clearing, since they are read only behind a
// portWord.
//
//distcolor:noalloc
func (inst *instance) retireRound(round int) {
	consumed := inst.bc[round&1^1]
	for i := range inst.shards {
		s := &inst.shards[i]
		for _, v := range s.newly {
			consumed[v] = NoWord
		}
		for _, v := range s.pending {
			consumed[v] = NoWord
		}
		s.pending, s.newly = s.newly, s.pending[:0]
	}
}

// faultErr returns the error for a round in which some machine sent
// portWord, or nil.
func (inst *instance) faultErr(round int) error {
	v := -1
	for i := range inst.shards {
		if f := inst.shards[i].fault; f >= 0 && (v < 0 || f < v) {
			v = f
		}
	}
	if v < 0 {
		return nil
	}
	return fmt.Errorf("sim: vertex %d sent the reserved word portWord (%d) in round %d", v, portWord, round)
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
	shards := 1
	if e == Parallel {
		shards = shardWorkers(t.G.N(), stepGrain)
	}
	inst, err := newInstance(t, f, shards, e == ReverseSequential)
	if err != nil {
		return Stats{}, err
	}
	return inst.run(ctx, maxRounds, hook, bw)
}

// run executes the instance's rounds until every machine has halted.
func (inst *instance) run(ctx context.Context, maxRounds int, hook RoundHook, bw *Bandwidth) (Stats, error) {
	n := len(inst.machines)
	var stats Stats
	for round := 0; inst.remaining > 0; round++ {
		if ctx.Err() != nil {
			return stats, abortErr(ctx, round, inst.remaining)
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w after %d rounds (%d vertices still running)", ErrRoundLimit, round, inst.remaining)
		}
		inst.stepRound(round)
		if err := inst.faultErr(round); err != nil {
			return stats, err
		}
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
