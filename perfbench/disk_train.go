package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

// disk-train: training-style bulk sampling from a graph larger than the
// store's page cache. The client samples 512-root batches (Table 2) with
// the paper's default sampling through an in-process DirectTransport to
// two partition servers answering from one budgeted DiskStore, wired the
// way lsdgnn.New(WithStore(Disk)) wires them (client tracer and SLO
// included); it is assembled here from the same parts so the Transport and
// Backend boundaries can be wrapped. Callers loop closed, so the store's
// page cache, not the wire, sets the pace.
const (
	trainBatchRoots = 512
	trainPartitions = 2
	// trainBudget is the page-cache budget: the materialized segment of
	// the 20k-node ss graph (~7 MiB) is more than 4× larger.
	trainBudget = 3 << 19
)

type diskTrain struct {
	g       *graph.Graph
	cfg     sampler.Config
	dir     string
	ds      *store.DiskStore
	st      *store.Stats
	client  *cluster.Client
	pool    [][]graph.NodeID
	probes  [][]graph.NodeID
	errs    errLog
	overRes atomic.Int64 // largest Resident() seen above the budget
	peakRes atomic.Int64

	rec     *Recorder
	wire    *tracedTransport
	backend *tracedBackend
	mark    trainMark
}

type trainMark struct {
	hits, misses, backendNs, backendCalls, wireBytes int64
	spans                                            int
}

func trainGraph() *graph.Graph {
	ds, err := workload.DatasetByName("ss")
	if err != nil {
		panic(err)
	}
	return graph.Generate(graph.GenConfig{
		NumNodes: ds.SimNodes, AvgDegree: ds.AvgDegree(), AttrLen: ds.AttrLen,
		Seed: datasetSeed, PowerLaw: ds.PowerLaw, Materialize: true,
	})
}

func buildDiskTrain(in inputs, rec *Recorder) (instance, error) {
	w := &diskTrain{g: trainGraph(), cfg: paperSampling(in.seed), rec: rec, st: &store.Stats{}}
	w.dir = filepath.Join(in.dataDir, fmt.Sprintf("train-%d", time.Now().UnixNano()))
	if err := store.Create(w.dir, w.g); err != nil {
		return nil, err
	}
	ds, err := store.Open(w.dir, store.WithMemoryBudget(trainBudget), store.WithStats(w.st))
	if err != nil {
		return nil, err
	}
	w.ds = ds
	if seg := ds.SegmentBytes(); seg < 4*trainBudget {
		w.close()
		return nil, fmt.Errorf("disk-train: segment %d bytes is under 4x the %d-byte budget", seg, trainBudget)
	}
	var backend cluster.Backend = ds
	if rec != nil {
		w.backend = &tracedBackend{inner: ds}
		backend = w.backend
	}
	part := cluster.HashPartitioner{N: trainPartitions}
	servers := make([]*cluster.Server, trainPartitions)
	for p := range servers {
		servers[p] = cluster.NewBackendServer(backend, part, p)
	}
	var tr cluster.Transport = cluster.DirectTransport{Servers: servers}
	if rec != nil {
		w.wire = &tracedTransport{inner: tr, r: rec}
		tr = w.wire
	}
	slo := stats.NewSLOTracker().Objective(stats.Objective{Name: "software_batch", Threshold: 50 * time.Millisecond})
	w.client, err = cluster.NewClientContext(context.Background(), tr, part, 0,
		cluster.WithTracer(obs.NewTracer()), cluster.WithSLO(slo))
	if err != nil {
		w.close()
		return nil, err
	}
	n := w.g.NumNodes()
	w.pool = rootPool(in.seed, streamRoots, 64, trainBatchRoots, n)
	w.probes = rootPool(in.seed, streamProbes, probeBatches, probeRoots, n)
	return w, nil
}

func (w *diskTrain) probe() error {
	want, err := reference(sampler.LocalStore{G: w.g}, w.cfg, w.probes)
	if err != nil {
		return err
	}
	return checkProbes("disk-train", w.probes, want, func(roots []graph.NodeID) (*sampler.Result, error) {
		return w.client.SampleBatch(context.Background(), roots, w.cfg)
	})
}

func (w *diskTrain) measure(ctx context.Context, d time.Duration) ([]sample, time.Duration) {
	w.mark = w.counters()
	return closedLoop(ctx, runtime.NumCPU(), d, func(ctx context.Context, _ int, batch int64) bool {
		roots := w.pool[int(batch)%len(w.pool)]
		ctx = withBatch(ctx, batch)
		var o open
		if w.rec != nil {
			ctx, o = w.rec.begin(ctx, "cluster.Client.SampleBatch")
		}
		res, err := w.client.SampleBatch(ctx, roots, w.cfg)
		if w.rec != nil {
			o.end()
		}
		// Resident bytes must never exceed the budget; it is read after
		// every batch, the same check the store's own benchmark makes.
		r := w.ds.Resident()
		if r > trainBudget {
			w.overRes.Store(r)
		}
		for p := w.peakRes.Load(); r > p && !w.peakRes.CompareAndSwap(p, r); p = w.peakRes.Load() {
		}
		return w.errs.batch(res, err, roots, w.cfg, w.g.NumNodes(), w.g.AttrLen())
	})
}

func (w *diskTrain) counters() trainMark {
	m := trainMark{hits: w.st.CacheHits(), misses: w.st.CacheMisses()}
	if w.rec != nil {
		m.spans = len(w.rec.Spans())
		m.wireBytes = w.wire.bytes.Load()
		m.backendNs = w.backend.ns.Load()
		m.backendCalls = w.backend.calls.Load()
	}
	return m
}

func (w *diskTrain) verify() error {
	if r := w.overRes.Load(); r > 0 {
		return fmt.Errorf("disk-train: resident %d bytes over the %d-byte budget", r, trainBudget)
	}
	return w.errs.err()
}

func (w *diskTrain) layers(samples []sample) map[string]float64 {
	now := w.counters()
	spans := w.rec.Spans()[w.mark.spans:]
	batches := float64(completed(samples))
	roots := batches * trainBatchRoots
	byBatch := map[int64]*batchSpans{}
	var transport []Span
	for _, s := range spans {
		switch s.Name {
		case "cluster.Client.SampleBatch":
			batchOf(byBatch, s.Batch).top = s
		case "cluster.Transport.Call":
			transport = append(transport, s)
			b := batchOf(byBatch, s.Batch)
			b.children = append(b.children, spanInterval(s))
		}
	}
	var clientSelf []float64
	for _, b := range byBatch {
		if b.top.ID != 0 {
			clientSelf = append(clientSelf, float64(selfTime(spanInterval(b.top), b.children))/1e6)
		}
	}
	backendNs := now.backendNs - w.mark.backendNs
	hits, misses := float64(now.hits-w.mark.hits), float64(now.misses-w.mark.misses)
	frames := float64(len(transport))
	return map[string]float64{
		"cluster.client_self_ms": median(clientSelf),
		"cluster.rpc_ms":         median(durationsMs(transport)),
		// DirectTransport calls Server.Handle in place, so the call is the
		// handler and the server's self time is the call minus the store.
		"cluster.server_self_us":      ratio(float64(sumDur(transport)-backendNs)/1e3, frames),
		"cluster.frames_per_root":     ratio(frames, roots),
		"cluster.wire_bytes_per_root": ratio(float64(now.wireBytes-w.mark.wireBytes), roots),
		"store.read_ms":               ratio(float64(backendNs)/1e6, batches),
		"store.ids_per_root":          ratio(float64(now.backendCalls-w.mark.backendCalls), roots),
		"store.hit_ratio":             ratio(hits, hits+misses),
		"store.misses_per_root":       ratio(misses, roots),
		"store.resident_peak_bytes":   float64(w.peakRes.Load()),
	}
}

func (w *diskTrain) close() error {
	var err error
	if w.ds != nil {
		err = w.ds.Close()
		w.ds = nil
	}
	return errors.Join(err, os.RemoveAll(w.dir))
}
