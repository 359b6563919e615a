package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	distcolor "repro"
	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/internal/verify"
)

// The colord-mix load: a closed loop of colordClients clients, each
// alternating a fresh graph (a cache miss) with an isomorphic relabeling
// of its previous graph (a cache hit). Fresh graphs alternate edge/sparse
// and vertex/cd. One pass replays the run's whole job stream against a new
// server on an empty data dir, so every pass journals, fsyncs and compacts
// the same records.
const (
	colordClients        = 2
	colordFreshPerClient = 100
	// colordProbes is how many fresh graphs the traced run replays through
	// the library layers outside the server.
	colordProbes = 32
)

// colordJob is one submission: the request and the client's own copy of
// the graph it verifies the served coloring against.
type colordJob struct {
	req   *distcolor.Request
	g     *graph.Graph
	kind  string // "sparse" or "cd"
	fresh bool
}

// colordStreams generates every client's job stream from seed.
func colordStreams(seed int64) ([][]colordJob, error) {
	streams := make([][]colordJob, colordClients)
	for c := range streams {
		for i := 0; i < colordFreshPerClient; i++ {
			k := i*colordClients + c
			kind := "sparse"
			if i%2 == 1 {
				kind = "cd"
			}
			fresh, err := freshJob(kind, subSeed(seed, 2*k))
			if err != nil {
				return nil, err
			}
			twin, err := relabel(fresh, subSeed(seed, 2*k+1))
			if err != nil {
				return nil, err
			}
			streams[c] = append(streams[c], fresh, twin)
		}
	}
	return streams, nil
}

func freshJob(kind string, seed int64) (colordJob, error) {
	var req *distcolor.Request
	switch kind {
	case "sparse":
		g, err := gen.ForestUnionHub(1000, 2, 150, seed)
		if err != nil {
			return colordJob{}, err
		}
		req = &distcolor.Request{Algorithm: distcolor.AlgoEdgeSparse, Graph: distcolor.Spec(g),
			Params: distcolor.Params{"arboricity": sparseArboricity}}
	case "cd":
		h, err := gen.UniformHypergraph(300, 3, 1000, seed)
		if err != nil {
			return colordJob{}, err
		}
		lg := h.LineGraph()
		spec := distcolor.Spec(lg.L)
		for _, cl := range lg.Cliques {
			if len(cl) >= 2 {
				spec.Cliques = append(spec.Cliques, cl)
			}
		}
		req = &distcolor.Request{Algorithm: distcolor.AlgoVertexCD, Graph: spec, Params: distcolor.Params{"x": 1}}
	}
	g, err := req.Graph.Build()
	return colordJob{req: req, g: g, kind: kind, fresh: true}, err
}

// relabel returns the job on a seeded random relabeling of its graph, with
// its edges (and clique cover) in a new order.
func relabel(j colordJob, seed int64) (colordJob, error) {
	rng := rand.New(rand.NewSource(seed))
	spec := j.req.Graph
	perm := rng.Perm(spec.N)
	edges := make([][2]int, len(spec.Edges))
	for i, e := range spec.Edges {
		edges[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	var cover [][]int32
	for _, cl := range spec.Cliques {
		m := make([]int32, len(cl))
		for i, v := range cl {
			m[i] = int32(perm[v])
		}
		cover = append(cover, m)
	}
	req := *j.req
	req.Graph = distcolor.GraphSpec{N: spec.N, Edges: edges, Cliques: cover}
	req.Params = maps.Clone(j.req.Params)
	g, err := req.Graph.Build()
	return colordJob{req: &req, g: g, kind: j.kind}, err
}

// colordServer is an in-process colord behind a loopback listener.
type colordServer struct {
	srv       *service.Server
	hs        *http.Server
	served    chan error
	dir       string
	base      string
	transport *http.Transport
	client    *service.Client
}

// startColord serves a default-configured colord journaling into a fresh
// empty data dir under the build directory.
func startColord() (*colordServer, error) {
	dir, err := os.MkdirTemp(buildDir, "colord-data-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	cs := &colordServer{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler()},
		served:    make(chan error, 1),
		dir:       dir,
		base:      "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * colordClients},
	}
	cs.client = &service.Client{Base: cs.base, HTTP: &http.Client{Transport: cs.transport}, Codec: "binary", MaxRetries: -1}
	go func() { cs.served <- cs.hs.Serve(ln) }()
	return cs, nil
}

// stop shuts the listener and the server down, waits for both, and
// removes the data dir.
func (cs *colordServer) stop() error {
	cs.transport.CloseIdleConnections()
	err := cs.hs.Shutdown(context.Background())
	if serr := <-cs.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	cs.srv.Close()
	if rerr := os.RemoveAll(cs.dir); err == nil {
		err = rerr
	}
	return err
}

// walCounters reads the colord_wal_* series from the Prometheus endpoint.
func (cs *colordServer) walCounters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cs.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cs.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "colord_wal_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// jobRecord is the client-side outcome of one job.
type jobRecord struct {
	err    error
	lat    time.Duration
	doneAt time.Time
	hit    bool
	kind   string
	edges  int
	resp   *distcolor.Response
	// Traced passes also keep the client's call times and the server's
	// span tree of the job.
	start, submitted, waited, fetched time.Time
	spans                             []service.Span
}

// doJob is the timed colord op: Submit, wait for completion on the
// server's blocking Wait, fetch the result, and verify it against the
// graph the client submitted.
func (cs *colordServer) doJob(ctx context.Context, j colordJob, traced bool) jobRecord {
	rec := jobRecord{kind: j.kind, edges: len(j.req.Graph.Edges), start: time.Now()}
	st, err := cs.client.Submit(ctx, j.req)
	rec.submitted = time.Now()
	if err == nil && !st.State.Terminal() {
		st, err = cs.srv.Wait(ctx, st.ID)
	}
	rec.waited = time.Now()
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err == nil {
		rec.resp, err = cs.client.Result(ctx, st.ID)
	}
	rec.fetched = time.Now()
	if err == nil {
		if j.kind == "sparse" {
			err = distcolor.CheckEdgeColoring(j.g, rec.resp.Colors, rec.resp.Palette)
		} else {
			err = distcolor.CheckVertexColoring(j.g, rec.resp.Colors, rec.resp.Palette)
		}
	}
	rec.doneAt = time.Now()
	rec.lat = rec.doneAt.Sub(rec.start)
	rec.hit = st.CacheHit
	rec.err = err
	if traced && err == nil {
		rec.spans, rec.err = cs.srv.Spans(st.ID)
	}
	return rec
}

// passResult is one replay of the job stream.
type passResult struct {
	recs  [][]jobRecord // per client, in stream order
	start time.Time
	wall  time.Duration
	wal   map[string]float64
	m     service.Metrics
}

// runPass drives the closed loop against cs until every client has
// finished its stream, then stops cs.
func runPass(ctx context.Context, cs *colordServer, streams [][]colordJob, traced bool) (passResult, error) {
	p := passResult{recs: make([][]jobRecord, len(streams)), start: time.Now()}
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range streams[c] {
				p.recs[c] = append(p.recs[c], cs.doJob(ctx, j, traced))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	var err error
	p.wal, err = cs.walCounters(ctx)
	p.m = cs.srv.Metrics()
	if serr := cs.stop(); err == nil {
		err = serr
	}
	return p, err
}

// all flattens a pass's records in client order.
func (p passResult) all() []jobRecord { return slices.Concat(p.recs...) }

// maxStall is the longest stretch of a pass with no job completing.
func (p passResult) maxStall() time.Duration {
	var done []time.Time
	for _, r := range p.all() {
		done = append(done, r.doneAt)
	}
	slices.SortFunc(done, func(a, b time.Time) int { return a.Compare(b) })
	var worst time.Duration
	prev := p.start
	for _, t := range done {
		worst = max(worst, t.Sub(prev))
		prev = t
	}
	return worst
}

// sameColorings compares two passes job by job.
func sameColorings(a, b passResult) error {
	ra, rb := a.all(), b.all()
	for i := range ra {
		if ra[i].resp == nil || rb[i].resp == nil {
			continue // a failed job is already counted
		}
		if !slices.Equal(ra[i].resp.Colors, rb[i].resp.Colors) || ra[i].resp.Stats != rb[i].resp.Stats {
			return fmt.Errorf("job %d: %w", i, errMismatch)
		}
	}
	return nil
}

// setupColord generates the job stream and starts a server setupReps
// times, keeping the last stream and server running.
func setupColord(seed int64) ([][]colordJob, *colordServer, []float64, error) {
	var times []float64
	var streams [][]colordJob
	var cs *colordServer
	for r := 0; r < setupReps; r++ {
		if cs != nil {
			if err := cs.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		streams = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if streams, err = colordStreams(seed); err != nil {
			return nil, nil, nil, err
		}
		if cs, err = startColord(); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return streams, cs, times, nil
}

// runColord measures colord-mix: passes of the job stream, each on a new
// server, until the run's time is used. The first pass warms the process
// up — its heap grows and its pages fault in — and is checked but not
// timed. A traced run makes a traced pass between two untraced ones and
// then replays fresh graphs through the layers.
func runColord(ctx context.Context, seed int64, dur time.Duration, traced bool, rep *report) error {
	streams, cs, setups, err := setupColord(seed)
	if err != nil {
		return err
	}
	var passes []passResult
	var wall time.Duration // of the timed passes
	var a0 uint64
	for len(passes) < 2 || (!traced && wall < dur) || (traced && len(passes) < 3) {
		if cs == nil {
			if cs, err = startColord(); err != nil {
				return err
			}
		}
		runtime.GC() // every pass starts from the same heap
		if len(passes) == 1 {
			a0 = heapAllocBytes()
		}
		p, err := runPass(ctx, cs, streams, traced && len(passes) == 1)
		cs = nil
		if err != nil {
			return err
		}
		for _, r := range p.all() {
			rep.attempted++
			if r.err != nil {
				rep.fail(r.err)
			}
		}
		if len(passes) > 0 {
			if err := sameColorings(passes[0], p); err != nil {
				rep.fail(fmt.Errorf("pass %d: %w", len(passes), err))
			}
			wall += p.wall
		}
		passes = append(passes, p)
	}
	alloc := heapAllocBytes() - a0

	if traced {
		return colordLayers(ctx, streams, passes, rep)
	}
	timed := passes[1:]
	var lats, hits, misses, jobRates, edgeRates []float64
	for _, p := range timed {
		var jobs, edges int
		for _, r := range p.all() {
			if r.err != nil {
				continue
			}
			jobs++
			edges += r.edges
			l := r.lat.Seconds()
			lats = append(lats, l)
			if r.hit {
				hits = append(hits, l)
			} else {
				misses = append(misses, l)
			}
		}
		jobRates = append(jobRates, float64(jobs)/p.wall.Seconds())
		edgeRates = append(edgeRates, float64(edges)/p.wall.Seconds())
	}
	rep.metric("setup_s", median(setups), "s")
	rep.metric("latency_s.p50", median(lats), "s")
	rep.info["latency_s.p99"] = metric{percentile(lats, 0.99), "s"}
	rep.metric("hit_latency_s.p50", median(hits), "s")
	rep.metric("miss_latency_s.p50", median(misses), "s")
	rep.metric("edges_per_s", median(edgeRates), "edges/s")
	rep.metric("jobs_per_s", median(jobRates), "jobs/s")
	jobsPerPass := len(passes[0].all())
	rep.metric("alloc_mb_per_op", float64(alloc)/1e6/float64(len(timed)*jobsPerPass), "MB")
	rep.metric("peak_rss_mb", peakRSSMB(), "MB")
	var rounds, msgs, colors float64
	for _, r := range passes[0].all() {
		if r.resp != nil {
			rounds += float64(r.resp.Stats.Rounds)
			msgs += float64(r.resp.Stats.Messages)
			colors += float64(verify.PaletteUsed(r.resp.Colors))
		}
	}
	n := float64(jobsPerPass)
	rep.metric("rounds_per_op", rounds/n, "count")
	rep.metric("messages_per_op", msgs/n, "count")
	rep.metric("colors_per_op", colors/n, "count")
	rep.samples("setup_s", len(setups))
	rep.samples("latency_s", len(lats))
	rep.samples("hit_latency_s", len(hits))
	rep.samples("miss_latency_s", len(misses))
	rep.samples("timed_passes", len(timed))
	rep.info["compactions_per_pass"] = passes[0].wal["colord_wal_compactions_total"]
	rep.info["jobs_per_s_by_pass"] = jobRates
	return nil
}

// colordLayers fills the per-layer metrics of a traced colord-mix run from
// the traced pass (passes[1]) and from standalone replays of the first
// fresh graphs through the library layers.
func colordLayers(ctx context.Context, streams [][]colordJob, passes []passResult, rep *report) error {
	p := passes[1]
	tr := rep.tracer
	var plainLat, tracedLat []float64
	for _, r := range slices.Concat(passes[0].all(), passes[2].all()) {
		plainLat = append(plainLat, r.lat.Seconds())
	}
	stage := map[string][]float64{}
	var verifyTotal time.Duration
	jobs := 0
	for op, r := range p.all() {
		if r.err != nil {
			continue
		}
		jobs++
		tracedLat = append(tracedLat, r.lat.Seconds())
		t := func(x time.Time) int64 { return int64(x.Sub(tr.origin)) }
		root := tr.add(span{Name: "job", Label: r.kind, Op: op, Parent: -1, Start: t(r.start), End: t(r.doneAt)})
		submit := tr.add(span{Name: "client.submit", Op: op, Parent: root, Start: t(r.start), End: t(r.submitted)})
		tr.add(span{Name: "client.wait", Op: op, Parent: root, Start: t(r.submitted), End: t(r.waited)})
		tr.add(span{Name: "client.result", Op: op, Parent: root, Start: t(r.waited), End: t(r.fetched)})
		tr.add(span{Name: "verify.check", Op: op, Parent: root, Start: t(r.fetched), End: t(r.doneAt)})
		verifyTotal += r.doneAt.Sub(r.fetched)
		// The server's span offsets count from its own receipt of the
		// submission; they are placed from the client's send time. Admission
		// happens inside the Submit round trip, the later stages while the
		// client waits.
		var admit time.Duration
		for _, s := range r.spans {
			if s.Name == "job" || s.DurUS < 0 {
				continue
			}
			d := time.Duration(s.DurUS) * time.Microsecond
			s0 := t(r.start) + s.StartUS*1000
			parent := root
			if s.Name == "admit" {
				parent = submit
			}
			tr.add(span{Name: "service." + s.Name, Label: r.kind, Op: op, Parent: parent, Start: s0, End: s0 + int64(d)})
			key := s.Name + "_s"
			switch s.Name {
			case "admit":
				admit = d
				key += map[bool]string{true: ".hit", false: ".miss"}[r.hit]
			case "execute":
				key += "." + r.kind
			}
			stage[key] = append(stage[key], d.Seconds())
		}
		stage["http_s"] = append(stage["http_s"], (r.submitted.Sub(r.start) - admit).Seconds())
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	for _, k := range []string{"admit_s.hit", "admit_s.miss", "queue_s", "execute_s.sparse", "execute_s.cd", "verify_s", "serve_s", "http_s"} {
		rep.metric("service."+k, mean(stage[k]), "s")
	}
	rep.metric("service.cache_hits", float64(p.m.CacheHits), "count")
	rep.metric("service.submissions", float64(p.m.Submitted), "count")
	rep.metric("service.cache_hit_ratio", float64(p.m.CacheHits)/float64(max(p.m.Submitted, 1)), "ratio")
	rep.metric("store.fsyncs_per_job", p.wal["colord_wal_fsyncs_total"]/float64(jobs), "count")
	rep.metric("store.appends_per_job", p.wal["colord_wal_appends_total"]/float64(jobs), "count")
	rep.metric("store.compactions", p.wal["colord_wal_compactions_total"], "count")
	rep.metric("store.max_stall_s", p.maxStall().Seconds(), "s")
	rep.metric("trace.overhead_frac", (median(tracedLat)-median(plainLat))/median(plainLat), "ratio")

	// Standalone replays: the first fresh graphs through graph, codec, the
	// algorithm's entry call on the benchmark's sim.Exec, and verify. Each
	// replay must reproduce the coloring the server served.
	var probes []int
	flat := slices.Concat(streams...)
	served := p.all()
	for i, j := range flat {
		if j.fresh && len(probes) < colordProbes {
			probes = append(probes, i)
		}
	}
	for _, i := range probes {
		if err := probeColordJob(ctx, tr, i, flat[i], served[i].resp); err != nil {
			rep.fail(fmt.Errorf("replay of job %d: %w", i, err))
		}
	}
	layerMetrics(rep, float64(len(probes)))
	rep.metric("verify.check_s", verifyTotal.Seconds()/float64(max(jobs, 1)), "s")
	rep.samples("jobs", jobs)
	rep.samples("replays", len(probes))
	return nil
}

// probeColordJob replays one fresh job through the library layers.
func probeColordJob(ctx context.Context, tr *tracer, op int, j colordJob, served *distcolor.Response) error {
	var g *graph.Graph
	var err error
	tr.timed("graph.build", j.kind, op, -1, func() { g, err = j.req.Graph.Build() })
	if err != nil {
		return err
	}
	tr.timed("graph.csr", j.kind, op, -1, func() { g.CSR() })
	tr.timed("graph.linegraph", j.kind, op, -1, func() { graph.LineGraph(g) })
	tr.timed("graph.canonical", j.kind, op, -1, func() { graph.CanonicalHash(g) })
	if err := probeCodec(tr, op, j.req); err != nil {
		return err
	}
	ex := &tracedExec{base: sim.Sequential, tr: tr, op: op}
	var colors []int64
	var st sim.Stats
	switch j.kind {
	case "sparse":
		ex.parent = tr.begin("arbor", j.kind, op, -1)
		colors, _, st, err = colorSparse(ctx, g, ex)
	case "cd":
		ex.parent = tr.begin("cd", j.kind, op, -1)
		var cov *cliques.Cover
		if cov, err = cliques.NewCover(g, j.req.Graph.Cliques); err == nil {
			var res *cd.Result
			res, err = cd.Color(ctx, g, cov, cd.ChooseT(cov.MaxCliqueSize(), 1), 1, cd.Options{Exec: ex, VC: vc.Options{Exec: ex}})
			if err == nil {
				colors, st = res.Colors, res.Stats
			}
		}
	}
	tr.end(ex.parent)
	if err != nil {
		return err
	}
	if served == nil {
		return nil
	}
	if !slices.Equal(colors, served.Colors) || st != served.Stats {
		return errMismatch
	}
	return nil
}
