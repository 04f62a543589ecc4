// Command perfbench is the repository's benchmark. It runs one named
// workload on the real request path of lsdgnn, checks that the outputs are
// correct, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-tcp --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/workload"
)

// instance is one assembled instance of a workload, ready to measure.
type instance interface {
	// probe checks the fixed probe batches against the reference sampler.
	probe() error
	// measure runs the load for d and returns every batch it sent and the
	// time the load ran.
	measure(ctx context.Context, d time.Duration) ([]sample, time.Duration)
	// verify runs the end-of-run correctness gate.
	verify() error
	// layers returns the per-layer metrics of the last measure call; it is
	// called only on a traced instance.
	layers(samples []sample) map[string]float64
	// close tears the instance down and removes its files.
	close() error
}

// spec names a workload and builds instances of it. build gets a non-nil
// recorder for a traced instance and must then install its decorators;
// nothing else may differ between the two.
type spec struct {
	name       string
	batchRoots int
	// stealExponent says how strongly the workload's progress depends on
	// the CPU share the hypervisor grants (see endToEnd). It is the slope of
	// log(wall-clock metric) against log(granted share) measured across
	// runs on a 2-vCPU VM: about 2 where every step hands off between a
	// client and a server goroutine, 1 where callers advance on whichever
	// vCPU runs, and between the two where a writer and a reader share the
	// store's lock.
	stealExponent float64
	build         func(in inputs, rec *Recorder) (instance, error)
}

var specs = []spec{
	{name: "serve-tcp", batchRoots: serveBatchRoots, stealExponent: 2, build: buildServeTCP},
	{name: "disk-train", batchRoots: trainBatchRoots, stealExponent: 1, build: buildDiskTrain},
	{name: "disk-ingest", batchRoots: ingestBatchRoots, stealExponent: 1.5, build: buildDiskIngest},
	{name: "gateway-accel", batchRoots: accelBatchRoots, stealExponent: 1, build: buildGatewayAccel},
}

// inputs is everything a workload instance gets from the seed.
type inputs struct {
	seed    int64
	dataDir string
}

// datasetSeed fixes the graph: like the paper's Table 2 datasets it is one
// dataset, and the run seed picks the roots, edges and sampling streams on
// it.
const datasetSeed = 42

// ssGraph builds the "ss" dataset at simulation size with procedural
// attributes.
func ssGraph() *graph.Graph {
	ds, err := workload.DatasetByName("ss")
	if err != nil {
		panic(err)
	}
	return ds.Build(datasetSeed)
}

// paperSampling is the paper's default unweighted Table 2 sampling: two
// hops of fanout 10, 10 negatives per root, attributes fetched.
func paperSampling(seed int64) sampler.Config {
	spec := workload.DefaultSampling()
	return sampler.Config{
		Fanouts: spec.Fanouts, NegativeRate: spec.NegativeRate,
		Method: sampler.Streaming, FetchAttrs: spec.FetchAttrs, Seed: seed,
	}
}

// rootPool pre-generates count batches of size roots from the seed; the
// load generator cycles through them.
func rootPool(seed int64, stream uint64, count, size int, numNodes int64) [][]graph.NodeID {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	pool := make([][]graph.NodeID, count)
	for i := range pool {
		pool[i] = make([]graph.NodeID, size)
		for j := range pool[i] {
			pool[i][j] = graph.NodeID(rng.Int63n(numNodes))
		}
	}
	return pool
}

// streamSeed derives the seed of one input stream from the run seed.
func streamSeed(seed int64, stream uint64) int64 {
	return seed ^ int64(stream*0x9e3779b97f4a7c15)
}

// Streams of the seed, so roots, probes and edges are independent.
const (
	streamRoots = iota + 1
	streamProbes
	streamEdges
)

const (
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is their median.
	setupRuns = 15
	// warmup runs load before the measured phase so caches fill and lazy
	// set-up finishes first.
	warmup = time.Second
	// probeBatches × probeRoots roots are checked against the reference.
	probeBatches = 4
	probeRoots   = 8
)

// phase is one measured phase's outcome.
type phase struct {
	setups    []interval
	samples   []sample
	busy      time.Duration
	peakBytes int64
	cpu       []cpuMark
	m0, m1    runtimeMark
	layers    map[string]float64
	// extras are workload-specific figures for the detail line.
	extras map[string]float64
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	dataDir := filepath.Join(root, ".bench_build", "data", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dataDir)
	in := inputs{seed: *seed, dataDir: dataDir}
	d := time.Duration(*seconds) * time.Second

	detail := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"host": fingerprint(root),
	}
	var metrics map[string]metric
	correct := true
	var attempted, failed int64
	note := func(err error) {
		if err != nil {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		}
	}

	if *traceFlag == 0 {
		ph, err := runPhase(sp, in, d, nil, setupRuns)
		note(err)
		e2e, info := endToEnd(ph, sp.batchRoots, sp.stealExponent)
		detail["phase"] = info
		metrics = e2e
		attempted, failed = counts(ph.samples)
	} else {
		plain, err := runPhase(sp, in, d, nil, 1)
		note(err)
		rec := newRecorder()
		traced, err := runPhase(sp, in, d, rec, 1)
		note(err)
		a, infoA := endToEnd(plain, sp.batchRoots, sp.stealExponent)
		b, infoB := endToEnd(traced, sp.batchRoots, sp.stealExponent)
		detail["untraced_phase"], detail["traced_phase"] = infoA, infoB
		metrics = layerMetrics(traced.layers)
		for _, m := range endToEndNames {
			metrics["trace_overhead."+m] = metric{b[m].Value - a[m].Value, b[m].Unit}
		}
		attempted, failed = counts(traced.samples)
		a1, f1 := counts(plain.samples)
		attempted, failed = attempted+a1, failed+f1
		path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := rec.writeJSONL(path); err == nil {
				detail["spans_file"] = path
			}
		}
		detail["spans"], detail["spans_dropped"] = len(rec.Spans()), rec.dropped
	}
	if attempted == 0 {
		correct = false
		attempted = 1
	}
	printJSON(detail)
	printJSON(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
}

// runPhase sets the workload up setups times (keeping the last instance),
// checks its probes, warms it up, measures it for d and runs its end
// gate.
func runPhase(sp *spec, in inputs, d time.Duration, rec *Recorder, setups int) (*phase, error) {
	ph := &phase{}
	host, err := startHostSampler()
	if err != nil {
		return ph, err
	}
	w, err := setUp(sp, in, rec, setups, ph)
	if err != nil {
		ph.peakBytes, ph.cpu = host.Stop()
		return ph, fmt.Errorf("setup: %w", err)
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(w.probe())
	ctx := context.Background()
	w.measure(ctx, warmup)
	debug.FreeOSMemory()
	host.ResetPeak()
	ph.m0 = markRuntime()
	ph.samples, ph.busy = w.measure(ctx, d)
	ph.m1 = markRuntime()
	ph.peakBytes, ph.cpu = host.Stop()
	keep(w.verify())
	if x, ok := w.(interface{ extras() map[string]float64 }); ok {
		ph.extras = x.extras()
	}
	if rec != nil {
		ph.layers = w.layers(ph.samples)
		ph.layers["runtime.gc_cpu_fraction"] = gcFraction(ph.m0, ph.m1)
		ph.layers["loadgen.late_p99_ms"] = latep99(ph.samples)
	}
	keep(w.close())
	if n := mem.Outstanding(); n != 0 {
		keep(fmt.Errorf("%d pooled buffers still outstanding after the run", n))
	}
	return ph, firstErr
}

// setUp builds the workload setups times, recording each build's clock()
// interval in ph, and returns the last instance.
func setUp(sp *spec, in inputs, rec *Recorder, setups int, ph *phase) (instance, error) {
	var w instance
	for i := 0; i < setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous instance's garbage outside the timed
		// region, so every set-up starts from the same heap.
		runtime.GC()
		start := clock()
		var err error
		if w, err = sp.build(in, rec); err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, interval{start, clock()})
	}
	return w, nil
}

func latep99(samples []sample) float64 {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = s.lateMs()
	}
	v, _, _ := tail(late)
	return v
}

func counts(samples []sample) (attempted, failed int64) {
	for _, s := range samples {
		attempted++
		if s.failed {
			failed++
		}
	}
	return attempted, failed
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"setup_s", "roots_per_s", "p50_ms", "tail_ms", "allocs_per_root", "peak_mem_mb"}

// endToEnd computes the end-to-end metrics of a phase, plus the facts a
// reader needs to trust them (sample count, the tail percentile used).
//
// The host is a VM whose hypervisor withholds a varying share of CPU time
// (steal). Every workload keeps its CPUs busy, so its wall-clock figures
// stretch as the granted share g = 1 − steal share falls, by about
// g^stealExponent. The time-based metrics undo that: each batch's latency
// is multiplied by g^stealExponent over the time it ran, and the measured
// time by g^stealExponent over the phase. The tail is the exception: steal
// comes in bursts of 10–40 ms, and the tail batches are the ones a burst
// hit, so a share read over a second cannot correct them; instead each
// batch's latency loses the most time stolen from any one vCPU while it
// ran (stolenMs), and so does each set-up. On a host without steal all of
// these equal the wall-clock figures, which the detail line keeps.
func endToEnd(ph *phase, batchRoots int, stealExponent float64) (map[string]metric, map[string]any) {
	granted := func(a, b int64) float64 { return math.Pow(grantedShare(ph.cpu, a, b), stealExponent) }
	var lat, tailLat, wall []float64
	var done []sample
	first, last := int64(math.MaxInt64), int64(0)
	for _, s := range ph.samples {
		first, last = min(first, s.due), max(last, s.end)
		if !s.failed {
			done = append(done, s)
			wall = append(wall, s.latencyMs())
			lat = append(lat, s.latencyMs()*granted(s.start, s.end))
			tailLat = append(tailLat, max(0, s.latencyMs()-stolenMs(ph.cpu, s.start, s.end)))
		}
	}
	share := granted(first, last)
	busy := ph.busy.Seconds()
	roots := float64(len(done) * batchRoots)
	tailV, pct, windows := windowedTail(done, tailLat, first, last)
	wallTail, _, _ := windowedTail(done, wall, first, last)
	wallP50 := median(append([]float64(nil), wall...))
	allocs := 0.0
	if roots > 0 {
		allocs = float64(ph.m1.mallocs-ph.m0.mallocs) / roots
	}
	// A set-up takes tens of milliseconds, as short as a tail batch, so it
	// loses its steal bursts the same way.
	var setup, wallSetup []float64
	for _, iv := range ph.setups {
		sec := float64(iv.hi-iv.lo) / 1e9
		wallSetup = append(wallSetup, sec)
		setup = append(setup, max(0, sec-stolenMs(ph.cpu, iv.lo, iv.hi)/1e3))
	}
	m := map[string]metric{
		"setup_s":         {median(setup), "s"},
		"roots_per_s":     {ratio(roots, busy*share), "1/s"},
		"p50_ms":          {median(lat), "ms"},
		"tail_ms":         {tailV, "ms"},
		"allocs_per_root": {allocs, "count"},
		"peak_mem_mb":     {float64(ph.peakBytes) / (1 << 20), "MiB"},
	}
	info := map[string]any{
		"batches_completed": len(done), "batches_attempted": len(ph.samples),
		"tail_windows": windows, "tail_percentile": pct,
		"measured_s": busy, "wall_setup_runs_s": wallSetup,
		"host_steal_share": 1 - grantedShare(ph.cpu, first, last), "steal_exponent": stealExponent,
		"wall_roots_per_s": ratio(roots, busy), "wall_p50_ms": wallP50, "wall_tail_ms": wallTail,
	}
	for k, v := range ph.extras {
		info[k] = v
	}
	return m, info
}

// Tail windows: the measured phase is cut by send time into up to
// maxTailWindows windows of at least minTailWindow batches.
const (
	maxTailWindows = 8
	minTailWindow  = 100
)

// windowedTail applies the percentile rule (tail) to lat (one value per
// sample in done) inside each window of [first, last] and returns the
// median over windows, the median percentile used and the window count. A
// host stall that hits one window moves the median of the windows much
// less than it moves one tail over the whole run.
func windowedTail(done []sample, lat []float64, first, last int64) (value, pct float64, windows int) {
	windows = min(maxTailWindows, max(1, len(done)/minTailWindow))
	per := make([][]float64, windows)
	for i, s := range done {
		w := int((s.start - first) * int64(windows) / (last - first + 1))
		per[w] = append(per[w], lat[i])
	}
	var vals, pcts []float64
	for _, xs := range per {
		if len(xs) == 0 {
			continue
		}
		v, p, _ := tail(xs)
		vals, pcts = append(vals, v), append(pcts, p)
	}
	return median(vals), median(pcts), windows
}

func layerMetrics(layers map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{layers[name], unit}
	}
	return out
}

// layerUnits lists every per-layer metric with its unit. A workload that
// does not cross a layer reports 0 for its metrics.
var layerUnits = map[string]string{
	"gateway.wire_self_us":             "us",
	"gateway.queue_wait_ms":            "ms",
	"gateway.queue_wait_p99_ms":        "ms",
	"gateway.rejected_ratio":           "ratio",
	"gateway.residual_ms":              "ms",
	"core.dispatch_wait_ms":            "ms",
	"core.inflight_mean":               "count",
	"axe.run_ms":                       "ms",
	"pipeline.self_ms":                 "ms",
	"pipeline.fetch_overlap":           "count",
	"pipeline.window_stalls_per_batch": "count",
	"cluster.client_self_ms":           "ms",
	"cluster.rpc_ms":                   "ms",
	"cluster.wire_ms":                  "ms",
	"cluster.server_self_us":           "us",
	"cluster.frames_per_root":          "count",
	"cluster.wire_bytes_per_root":      "B",
	"cluster.pack_ratio":               "ratio",
	"cluster.retries":                  "count",
	"sampler.self_ms":                  "ms",
	"store.read_ms":                    "ms",
	"store.ids_per_root":               "count",
	"store.hit_ratio":                  "ratio",
	"store.misses_per_root":            "count",
	"store.resident_peak_bytes":        "B",
	"store.append_us":                  "us",
	"store.compact_s":                  "s",
	"store.read_ms_during_compact":     "ms",
	"store.ingest_edges_per_s":         "1/s",
	"runtime.gc_cpu_fraction":          "ratio",
	"loadgen.late_p99_ms":              "ms",
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
