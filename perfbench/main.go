// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public entry points — distcolor.Run for edge-star
// and edge-sparse, an in-process colord over loopback HTTP for colord-mix —
// checks every coloring, and prints one JSON result line:
//
//	perfbench --workload edge-sparse --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a traced
// run, which times the benchmark's own calls into each layer (graph, sim,
// star, arbor, cd, verify, codec, service, store) and writes the spans to
// a JSON-lines file under the build directory. See README.md for the
// metric definitions and which end-to-end metric each layer should move.
//
// Build and run it with run.py, which keeps the Go build cache inside the
// checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

// buildDir holds everything a run writes: colord data dirs and trace files.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome. info holds what is not a metric: the
// environment, sample counts and the failure ratio.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	info              map[string]any
	sampleCounts      map[string]int
	tracer            *tracer
}

func (r *report) metric(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) samples(name string, n int) { r.sampleCounts[name] = n }

// fail counts a failed op; the first few errors are kept for the log.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// endToEnd and perLayer list the metrics a run prints, with their units;
// BENCHMARK.json names the same sets.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_s.p50", "s"},
	{"hit_latency_s.p50", "s"},
	{"miss_latency_s.p50", "s"},
	{"edges_per_s", "edges/s"},
	{"jobs_per_s", "jobs/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"rounds_per_op", "count"},
	{"messages_per_op", "count"},
	{"colors_per_op", "count"},
}

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// simPackages are the packages whose node programs the sim.*.<pkg> metrics
// attribute executions to. Every execution of the three workloads runs a
// Factory declared in one of them: star, vc and cd compose linial and
// reduce programs and declare none of their own.
var simPackages = []string{"linial", "reduce", "arbor"}

func perLayer() []metricDef {
	ms := []metricDef{
		{"graph.build_s", "s"},
		{"graph.csr_s", "s"},
		{"graph.linegraph_s", "s"},
		{"graph.canonical_s", "s"},
		{"sim.execs_per_op", "count"},
		{"sim.setup_s", "s"},
		{"sim.step_s", "s"},
		{"sim.ns_per_message", "ns"},
		{"sim.alloc_mb_per_op", "MB"},
	}
	for _, p := range simPackages {
		ms = append(ms, metricDef{"sim.execs_per_op." + p, "count"}, metricDef{"sim.setup_s." + p, "s"}, metricDef{"sim.step_s." + p, "s"})
	}
	return append(ms, []metricDef{
		{"star.self_s", "s"},
		{"arbor.self_s", "s"},
		{"cd.self_s", "s"},
		{"verify.check_s", "s"},
		{"codec.encode_s", "s"},
		{"codec.decode_s", "s"},
		{"codec.wire_bytes_per_job", "bytes"},
		{"service.admit_s.hit", "s"},
		{"service.admit_s.miss", "s"},
		{"service.queue_s", "s"},
		{"service.execute_s.sparse", "s"},
		{"service.execute_s.cd", "s"},
		{"service.verify_s", "s"},
		{"service.serve_s", "s"},
		{"service.http_s", "s"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.cache_hits", "count"},
		{"service.submissions", "count"},
		{"store.fsyncs_per_job", "count"},
		{"store.appends_per_job", "count"},
		{"store.compactions", "count"},
		{"store.max_stall_s", "s"},
		{"trace.overhead_frac", "ratio"},
		{"trace.accounted_frac", "ratio"},
	}...)
}

// layerMetrics derives the graph, sim, algorithm, verify and codec metrics
// from the recorded spans, as means per op.
func layerMetrics(rep *report, ops float64) {
	tr := rep.tracer
	per := func(name string) float64 {
		d, _, _ := tr.sum(name, "")
		return d.Seconds() / ops
	}
	for _, n := range []string{"graph.build", "graph.csr", "graph.linegraph", "graph.canonical", "sim.setup", "sim.step", "verify.check", "codec.encode", "codec.decode"} {
		rep.metric(n+"_s", per(n), "s")
	}
	_, _, nExec := tr.sum("sim.exec", "")
	rep.metric("sim.execs_per_op", float64(nExec)/ops, "count")
	step, msgs, _ := tr.sum("sim.step", "")
	if msgs > 0 {
		rep.metric("sim.ns_per_message", float64(step.Nanoseconds())/float64(msgs), "ns")
	}
	_, alloc, _ := tr.sum("sim.alloc", "")
	rep.metric("sim.alloc_mb_per_op", float64(alloc)/1e6/ops, "MB")
	for _, p := range simPackages {
		_, _, n := tr.sum("sim.exec", p)
		setup, _, _ := tr.sum("sim.setup", p)
		step, _, _ := tr.sum("sim.step", p)
		rep.metric("sim.execs_per_op."+p, float64(n)/ops, "count")
		rep.metric("sim.setup_s."+p, setup.Seconds()/ops, "s")
		rep.metric("sim.step_s."+p, step.Seconds()/ops, "s")
	}
	for _, l := range []string{"star", "arbor", "cd"} {
		rep.metric(l+".self_s", tr.selfSum(l).Seconds()/ops, "s")
	}
	_, wire, nWire := tr.sum("codec.wire", "")
	if nWire > 0 {
		rep.metric("codec.wire_bytes_per_job", float64(wire)/float64(nWire), "bytes")
	}
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
	if l3, ok := l3Bytes(); ok {
		env["l3_bytes"] = l3
	} else {
		env["l3_bytes"] = "unknown"
	}
	return env
}

// l3Bytes reads the L3 cache size the kernel reports for CPU 0.
func l3Bytes() (int64, bool) {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0, false
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "edge-star, edge-sparse or colord-mix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Int("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	rep := &report{metrics: map[string]metric{}, info: map[string]any{}, sampleCounts: map[string]int{}}
	traced := *trace == 1
	if traced {
		rep.tracer = newTracer()
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	dur := time.Duration(*secs) * time.Second
	var err error
	switch *workload {
	case "edge-star", "edge-sparse":
		w := edgeStar
		if *workload == "edge-sparse" {
			w = edgeSparse
		}
		if traced {
			err = runLibraryTraced(ctx, w, *seed, dur, rep)
		} else {
			err = runLibrary(ctx, w, *seed, dur, rep)
		}
	case "colord-mix":
		err = runColord(ctx, *seed, dur, traced, rep)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	env := environment()
	if b, ok := rep.info["edge_star_arc_slab_bytes_computed"].(int64); ok {
		if l3, ok := env["l3_bytes"].(int64); ok {
			rep.info["edge_star_arc_slab_over_l3"] = float64(b) / float64(l3)
		}
	}
	want := endToEnd
	if traced {
		want = perLayer()
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			// A layer the workload does not pass through reads 0.
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured in %s, declared in %s\n", m.name, v.Unit, m.unit)
			return 1
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// No sample: every op failed, or the run was too short to
			// repeat its input.
			fmt.Fprintf(os.Stderr, "perfbench: %s has no sample\n", m.name)
			v.Value = 0
		}
		out[m.name] = v
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	rep.info["env"] = env
	rep.info["samples"] = rep.sampleCounts
	rep.info["failed_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.info["workload"] = *workload
	rep.info["seed"] = *seed
	if traced {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := rep.tracer.write(path, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		rep.info["spans_file"] = path
	}
	correct := rep.failed == 0
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}
