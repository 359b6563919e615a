package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Start and End are nanoseconds since the tracer's origin; Parent
// is the index of the enclosing span, or -1. Spans of one operation share
// Op. Label refines the name where one layer serves several callers (the
// Factory package of a simulator execution, the algorithm of a colord job).
type span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count carries a per-span quantity: simulated messages for sim.exec,
	// heap bytes allocated inside it for sim.alloc.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; write dumps them when the run ends.
// It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, label string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Label: label, Op: op, Parent: parent, Start: t.now(), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// add records a span measured elsewhere.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// timed runs fn inside a span.
func (t *tracer) timed(name, label string, op, parent int, fn func()) {
	i := t.begin(name, label, op, parent)
	fn()
	t.end(i)
}

// selfTime is a span's duration minus the part of it its children cover.
// It is taken of algorithm entry calls, whose children are simulator
// executions made one after another, so the covered part is the sum of
// their durations.
func (t *tracer) selfTime(i int) time.Duration {
	d := t.spans[i].dur()
	for _, c := range t.spans {
		if c.Parent == i {
			d -= c.dur()
		}
	}
	return d
}

// sum totals the duration and Count of the spans with the given name, and
// with the given label when label is not empty.
func (t *tracer) sum(name, label string) (d time.Duration, count int64, n int) {
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) {
			d += s.dur()
			count += s.Count
			n++
		}
	}
	return d, count, n
}

// selfSum totals the self time of the spans with the given name.
func (t *tracer) selfSum(name string) time.Duration {
	var d time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			d += t.selfTime(i)
		}
	}
	return d
}

// write stores the environment and every span as JSON lines.
func (t *tracer) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedExec is the benchmark's sim.Exec: it runs every execution on base
// and records one sim.exec span per call, split into a sim.setup child
// (entry to the factory's return for the last vertex) and a sim.step child
// (from there to the engine's return), plus the heap bytes allocated inside
// the call. Algorithms thread the Exec they are given to every
// sub-execution, so each constituent execution of a run is recorded.
type tracedExec struct {
	base   sim.Exec
	tr     *tracer
	op     int
	parent int
}

func (e *tracedExec) Run(ctx context.Context, t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error) {
	pkg := factoryPackage(f)
	n := t.G.N()
	a0 := heapAllocBytes()
	x := e.tr.begin("sim.exec", pkg, e.op, e.parent)
	setupEnd := e.tr.spans[x].Start
	made := 0
	wrapped := func(info sim.NodeInfo, ids, labels []int64) sim.Machine {
		m := f(info, ids, labels)
		if made++; made == n {
			setupEnd = e.tr.now()
		}
		return m
	}
	st, err := e.base.Run(ctx, t, wrapped, maxRounds)
	end := e.tr.now()
	allocated := int64(heapAllocBytes() - a0)
	e.tr.spans[x].End = end
	e.tr.spans[x].Count = st.Messages
	start := e.tr.spans[x].Start
	e.tr.add(span{Name: "sim.setup", Label: pkg, Op: e.op, Parent: x, Start: start, End: setupEnd})
	e.tr.add(span{Name: "sim.step", Label: pkg, Op: e.op, Parent: x, Start: setupEnd, End: end, Count: st.Messages})
	// sim.alloc is a zero-length marker carrying the byte count, so it adds
	// nothing to its parent's covered time.
	e.tr.add(span{Name: "sim.alloc", Label: pkg, Op: e.op, Parent: x, Start: end, End: end, Count: allocated})
	return st, err
}

// factoryPackage names the package that defined f, e.g. "linial" for a
// closure or method value declared in repro/internal/linial.
func factoryPackage(f sim.Factory) string {
	fn := runtime.FuncForPC(reflect.ValueOf(f).Pointer())
	if fn == nil {
		return "unknown"
	}
	name := fn.Name()
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.Index(name, "."); i >= 0 {
		name = name[:i]
	}
	return name
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic(fmt.Sprintf("runtime/metrics: %s unsupported", s[0].Name))
	}
	return s[0].Value.Uint64()
}
