package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	distcolor "repro"
	"repro/internal/arbor"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/vc"
	"repro/internal/verify"
)

// libWorkload is a workload driven through the library entry point
// distcolor.Run. One op builds the graph from its edge list with
// distcolor.NewBuilder and runs the algorithm, which verifies its output.
type libWorkload struct {
	algo     string
	params   distcolor.Params
	parallel bool
	// gate colors each input once on sim.Sequential during setup; every op
	// must then reproduce that coloring and its Stats bit for bit.
	gate bool
	// inputs is how many graphs a run generates; ops cycle through them.
	inputs   int
	generate func(seed int64) (*graph.Graph, error)
	// layer is the module whose entry call the traced op times, and color
	// is that call, made with the benchmark's sim.Exec.
	layer string
	color func(ctx context.Context, g *graph.Graph, ex sim.Exec) ([]int64, int64, sim.Stats, error)
}

var edgeStar = libWorkload{
	algo:   distcolor.AlgoEdgeStar,
	params: distcolor.Params{"x": 1},
	// One graph: an op takes seconds, so a run repeats it a few times.
	inputs: 1,
	generate: func(seed int64) (*graph.Graph, error) {
		return gen.NearRegular(100_000, 8, seed)
	},
	layer: "star",
	color: func(ctx context.Context, g *graph.Graph, ex sim.Exec) ([]int64, int64, sim.Stats, error) {
		t, err := star.ChooseT(g.MaxDegree(), 1)
		if err != nil {
			return nil, 0, sim.Stats{}, err
		}
		res, err := star.EdgeColor(ctx, g, t, 1, star.Options{Exec: ex, VC: vc.Options{Exec: ex}})
		if err != nil {
			return nil, 0, sim.Stats{}, err
		}
		return res.Colors, res.Palette, res.Stats, nil
	},
}

var edgeSparse = libWorkload{
	algo:     distcolor.AlgoEdgeSparse,
	params:   distcolor.Params{"arboricity": sparseArboricity},
	parallel: true,
	gate:     true,
	// Three graphs: one in three or four seeds yields an H-partition with
	// a part fewer (145 rounds instead of 165), so a single graph would make
	// the deterministic metrics jump between seeds.
	inputs: 3,
	generate: func(seed int64) (*graph.Graph, error) {
		return gen.ForestUnionHub(20_000, 2, 400, seed)
	},
	layer: "arbor",
	color: func(ctx context.Context, g *graph.Graph, ex sim.Exec) ([]int64, int64, sim.Stats, error) {
		return colorSparse(ctx, g, ex)
	},
}

const sparseArboricity = 3

// colorSparse is the arbor entry call behind edge/sparse with
// {arboricity: 3} and the default q = 3.
func colorSparse(ctx context.Context, g *graph.Graph, ex sim.Exec) ([]int64, int64, sim.Stats, error) {
	res, _, err := arbor.ColorAdaptive(ctx, g, sparseArboricity, arbor.Options{Exec: ex, VC: vc.Options{Exec: ex}, Q: 3})
	if err != nil {
		return nil, 0, sim.Stats{}, err
	}
	return res.Colors, res.Palette, res.Stats, nil
}

// libInput is one generated input: the edge list the op builds from, and
// the coloring every op on it must reproduce.
type libInput struct {
	n     int
	edges [][2]int
	ref   *distcolor.Coloring
}

func (w libWorkload) engine() sim.Exec {
	if w.parallel {
		return sim.Parallel
	}
	return sim.Sequential
}

// setup generates the run's inputs from seed and, for gated workloads,
// colors each once on the sequential engine.
func (w libWorkload) setup(ctx context.Context, seed int64) ([]libInput, error) {
	ins := make([]libInput, w.inputs)
	for k := range ins {
		g, err := w.generate(subSeed(seed, 2*k))
		if err != nil {
			return nil, err
		}
		ins[k] = libInput{n: g.N(), edges: edgeList(distcolor.Spec(g).Edges, subSeed(seed, 2*k+1))}
		if w.gate {
			ins[k].ref, err = distcolor.Run(ctx, g, w.algo, maps.Clone(w.params), distcolor.Options{})
			if err != nil {
				return nil, fmt.Errorf("equivalence gate: sequential run: %w", err)
			}
		}
	}
	return ins, nil
}

func (in libInput) build() (*graph.Graph, error) {
	b := distcolor.NewBuilder(in.n)
	b.Grow(len(in.edges))
	for _, e := range in.edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// op is the timed library operation.
func (w libWorkload) op(ctx context.Context, in libInput) (*graph.Graph, *distcolor.Coloring, error) {
	g, err := in.build()
	if err != nil {
		return nil, nil, err
	}
	col, err := distcolor.Run(ctx, g, w.algo, maps.Clone(w.params), distcolor.Options{Parallel: w.parallel})
	return g, col, err
}

var errMismatch = errors.New("coloring or Stats differ from the reference run")

// check verifies an op's output independently of Run and compares it with
// the input's reference coloring.
func check(g *graph.Graph, colors []int64, palette int64, st sim.Stats, ref *distcolor.Coloring) error {
	if err := distcolor.CheckEdgeColoring(g, colors, palette); err != nil {
		return err
	}
	if ref != nil && (!slices.Equal(colors, ref.Colors) || palette != ref.Palette || st != ref.Stats) {
		return errMismatch
	}
	return nil
}

// checkedOp runs one timed op and checks its output; the first good op
// becomes the reference when setup made none. It reports the op's latency
// in seconds and whether it succeeded.
func (w libWorkload) checkedOp(ctx context.Context, in *libInput, i int, rep *report) (float64, bool) {
	runtime.GC() // every op starts from the same heap
	t0 := time.Now()
	g, col, err := w.op(ctx, *in)
	lat := time.Since(t0).Seconds()
	rep.attempted++
	if err == nil {
		err = check(g, col.Colors, col.Palette, col.Stats, in.ref)
	}
	if err != nil {
		rep.fail(fmt.Errorf("op %d: %w", i, err))
		return 0, false
	}
	if in.ref == nil {
		in.ref = col
	}
	return lat, true
}

// setupLibrary runs the workload's setup setupReps times and keeps the last
// inputs; every repetition must produce the same reference colorings.
func (w libWorkload) setupLibrary(ctx context.Context, seed int64, rep *report) ([]libInput, []float64, error) {
	var ins []libInput
	var times []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(ctx, seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		for k := range ins {
			if a, b := ins[k].ref, next[k].ref; a != nil && (!slices.Equal(a.Colors, b.Colors) || a.Stats != b.Stats) {
				return nil, nil, fmt.Errorf("equivalence gate: setup repetitions disagree: %w", errMismatch)
			}
		}
		ins = next
	}
	if w.layer == "star" {
		rep.info["edge_star_arc_slab_bytes_computed"] = arcSlabBytes(ins[0])
	}
	return ins, times, nil
}

// runLibrary measures the workload with tracing off and fills the
// end-to-end metrics.
func runLibrary(ctx context.Context, w libWorkload, seed int64, dur time.Duration, rep *report) error {
	ins, setups, err := w.setupLibrary(ctx, seed, rep)
	if err != nil {
		return err
	}
	var lats, hit, edgeRates []float64
	a0 := heapAllocBytes()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		in := &ins[i%len(ins)]
		lat, ok := w.checkedOp(ctx, in, i, rep)
		if !ok {
			continue
		}
		lats = append(lats, lat)
		edgeRates = append(edgeRates, float64(len(in.edges))/lat)
		if i >= len(ins) {
			hit = append(hit, lat)
		}
	}
	ops := float64(max(rep.attempted, 1))
	rep.metric("setup_s", median(setups), "s")
	rep.metric("latency_s.p50", median(lats), "s")
	rep.info["latency_s.p99"] = metric{percentile(lats, 0.99), "s"}
	// The library has no result cache: every op computes its coloring, so
	// every op is a miss, and the repeats of an input — what colord would
	// serve as hits — cost the same.
	rep.metric("miss_latency_s.p50", median(lats), "s")
	rep.metric("hit_latency_s.p50", median(hit), "s")
	// Ops run one at a time, so the rates are per op, medians over the run.
	rep.metric("edges_per_s", median(edgeRates), "edges/s")
	rep.metric("jobs_per_s", 1/median(lats), "jobs/s")
	rep.metric("alloc_mb_per_op", float64(heapAllocBytes()-a0)/1e6/ops, "MB")
	rep.metric("peak_rss_mb", peakRSSMB(), "MB")
	// The distributed cost and quality are means over the run's inputs,
	// whatever number of ops each got.
	var rounds, msgs, colors, refs float64
	for _, in := range ins {
		if in.ref != nil {
			rounds += float64(in.ref.Stats.Rounds)
			msgs += float64(in.ref.Stats.Messages)
			colors += float64(verify.PaletteUsed(in.ref.Colors))
			refs++
		}
	}
	rep.metric("rounds_per_op", rounds/refs, "count")
	rep.metric("messages_per_op", msgs/refs, "count")
	rep.metric("colors_per_op", colors/refs, "count")
	rep.samples("setup_s", len(setups))
	rep.samples("latency_s", len(lats))
	rep.samples("hit_latency_s", len(hit))
	return nil
}

// runLibraryTraced alternates an untraced op with its traced twin, which
// makes the same algorithm entry call with the benchmark's sim.Exec, and
// fills the per-layer metrics from the recorded spans.
func runLibraryTraced(ctx context.Context, w libWorkload, seed int64, dur time.Duration, rep *report) error {
	ins, _, err := w.setupLibrary(ctx, seed, rep)
	if err != nil {
		return err
	}
	tr := rep.tracer
	var plain, traced []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		in := &ins[i%len(ins)]
		// The twins alternate which goes first, so neither always runs on
		// the colder heap. The first op sets edge-star's reference.
		if i%2 == 0 {
			if lat, ok := w.checkedOp(ctx, in, i, rep); ok {
				plain = append(plain, lat)
			}
		}
		if in.ref != nil {
			rep.attempted++
			if root, err := w.tracedOp(ctx, tr, i, *in); err != nil {
				rep.fail(fmt.Errorf("traced op %d: %w", i, err))
			} else {
				traced = append(traced, tr.spans[root].dur().Seconds())
			}
			req := &distcolor.Request{Algorithm: w.algo, Graph: distcolor.GraphSpec{N: in.n, Edges: in.edges}, Params: w.params}
			if err := probeCodec(tr, i, req); err != nil {
				rep.fail(fmt.Errorf("traced op %d: %w", i, err))
			}
		}
		if i%2 == 1 {
			if lat, ok := w.checkedOp(ctx, in, i, rep); ok {
				plain = append(plain, lat)
			}
		}
	}
	ops := float64(len(traced))
	if ops == 0 || len(plain) == 0 {
		return errors.New("no op completed")
	}
	rep.samples("ops", len(plain))
	rep.samples("traced_ops", len(traced))
	layerMetrics(rep, ops)
	opTime, _, _ := tr.sum("op", "")
	build, _, _ := tr.sum("graph.build", "")
	csr, _, _ := tr.sum("graph.csr", "")
	setup, _, _ := tr.sum("sim.setup", "")
	step, _, _ := tr.sum("sim.step", "")
	verified, _, _ := tr.sum("verify.check", "")
	accounted := build + csr + tr.selfSum(w.layer) + setup + step + verified
	rep.metric("trace.accounted_frac", float64(accounted)/float64(opTime), "ratio")
	rep.metric("trace.overhead_frac", (median(traced)-median(plain))/median(plain), "ratio")
	return nil
}

// tracedOp is one op made through the layers' own entry points, each call
// inside a span, followed by a standalone line-graph build. It returns the
// index of the op's root span.
func (w libWorkload) tracedOp(ctx context.Context, tr *tracer, op int, in libInput) (int, error) {
	runtime.GC()
	root := tr.begin("op", w.layer, op, -1)
	var g *graph.Graph
	var err error
	tr.timed("graph.build", "", op, root, func() { g, err = in.build() })
	if err != nil {
		return root, err
	}
	tr.timed("graph.csr", "", op, root, func() { g.CSR() })
	ex := &tracedExec{base: w.engine(), tr: tr, op: op}
	ex.parent = tr.begin(w.layer, "", op, root)
	colors, palette, st, err := w.color(ctx, g, ex)
	tr.end(ex.parent)
	if err != nil {
		return root, err
	}
	tr.timed("verify.check", "", op, root, func() { err = distcolor.CheckEdgeColoring(g, colors, palette) })
	tr.end(root)
	if err != nil {
		return root, err
	}
	if !slices.Equal(colors, in.ref.Colors) || st != in.ref.Stats {
		return root, fmt.Errorf("traced twin: %w", errMismatch)
	}
	tr.timed("graph.linegraph", "", op, -1, func() { graph.LineGraph(g) })
	return root, nil
}

// probeCodec times a standalone binary encode and decode of req.
func probeCodec(tr *tracer, op int, req *distcolor.Request) error {
	var data []byte
	var err error
	tr.timed("codec.encode", "", op, -1, func() { data, err = distcolor.CodecBinary.Encode(req) })
	if err != nil {
		return fmt.Errorf("codec encode: %w", err)
	}
	now := tr.now()
	tr.add(span{Name: "codec.wire", Op: op, Parent: -1, Start: now, End: now, Count: int64(len(data))})
	var back distcolor.Request
	tr.timed("codec.decode", "", op, -1, func() { err = distcolor.CodecBinary.Decode(data, &back) })
	if err != nil {
		return fmt.Errorf("codec decode: %w", err)
	}
	if back.Graph.N != req.Graph.N || !slices.Equal(back.Graph.Edges, req.Graph.Edges) {
		return errors.New("codec round trip changed the graph")
	}
	return nil
}

// arcSlabBytes computes, without allocating it, the simulator footprint of
// edge-star's largest execution: the line graph of the input has
// Σ deg(v)·(deg(v)−1) arcs, each carrying three Word slots (the inbox slab
// and two outbox slabs, 8 bytes each) and three int32 CSR entries (To,
// Edge, Mate).
func arcSlabBytes(in libInput) int64 {
	deg := make([]int64, in.n)
	for _, e := range in.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	var arcs int64
	for _, d := range deg {
		arcs += d * (d - 1)
	}
	return arcs * (3*8 + 3*4)
}
