package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
)

// serve-tcp: the online-inference path. A cluster.Client (request packing
// with BDI sections, API key, default resilience policy) under the
// out-of-order pipeline executor talks over loopback TCP to two partition
// servers, each behind a gateway.WireGate, serving the in-memory "ss"
// graph. Two callers loop closed over 16-root batches.
const (
	serveBatchRoots = 16
	servePartitions = 2
	serveKey        = "perfbench-key"
)

type serveTCP struct {
	g      *graph.Graph
	cfg    sampler.Config
	gates  []*gateway.WireGate
	tcp    []*cluster.TCPServer
	tr     *cluster.TCPTransport
	client *cluster.Client
	ex     *pipeline.Executor
	pool   [][]graph.NodeID
	probes [][]graph.NodeID
	errs   errLog

	rec      *Recorder
	wire     *tracedTransport
	backends []*tracedBackend
	mark     serveMark
}

// serveMark holds the program counters at the start of a measured phase.
type serveMark struct {
	stalls, frames, subs, retries, admitted, rejected int64
	backendNs, backendCalls, wireBytes                int64
	spans                                             int
}

func buildServeTCP(in inputs, rec *Recorder) (instance, error) {
	w := &serveTCP{g: ssGraph(), rec: rec}
	// The pipeline forces per-root RNG streams; the reference uses the
	// same config.
	w.cfg = paperSampling(in.seed)
	w.cfg.RootStreams = true
	part := cluster.HashPartitioner{N: servePartitions}
	addrs := make([]string, servePartitions)
	for p := 0; p < servePartitions; p++ {
		var backend cluster.Backend = w.g
		if rec != nil {
			tb := &tracedBackend{inner: w.g}
			w.backends = append(w.backends, tb)
			backend = tb
		}
		srv := cluster.NewBackendServer(backend, part, p)
		var inner cluster.Handler = srv
		if rec != nil {
			inner = &tracedHandler{inner: srv, name: "cluster.Server.Handle", r: rec}
		}
		gate, err := gateway.NewWireGate(gateway.WireGateConfig{
			Tenants: []gateway.TenantConfig{{Name: "bench", Key: serveKey}},
		}, inner)
		if err != nil {
			w.close()
			return nil, err
		}
		w.gates = append(w.gates, gate)
		var outer cluster.Handler = gate
		if rec != nil {
			outer = &tracedHandler{inner: gate, name: "gateway.WireGate.Handle", r: rec}
		}
		ts, err := cluster.ServeTCP(outer, "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		w.tcp = append(w.tcp, ts)
		addrs[p] = ts.Addr()
	}
	w.tr = cluster.DialTCP(addrs, 1)
	var tr cluster.Transport = w.tr
	if rec != nil {
		w.wire = &tracedTransport{inner: w.tr, r: rec}
		tr = w.wire
	}
	client, err := cluster.NewClientContext(context.Background(), tr, part, -1,
		cluster.WithPacking(cluster.PackingConfig{}),
		cluster.WithAPIKey(serveKey),
		cluster.WithResilience(cluster.DefaultResilienceConfig()))
	if err != nil {
		w.close()
		return nil, err
	}
	if !client.Packing() {
		w.close()
		return nil, errors.New("serve-tcp: the servers did not grant request packing")
	}
	w.client = client
	var st sampler.Store = client
	if rec != nil {
		st = &tracedStore{inner: client, r: rec}
	}
	w.ex = pipeline.New(st, w.cfg, pipeline.Config{})
	n := w.g.NumNodes()
	w.pool = rootPool(in.seed, streamRoots, 256, serveBatchRoots, n)
	w.probes = rootPool(in.seed, streamProbes, probeBatches, probeRoots, n)
	return w, nil
}

func (w *serveTCP) probe() error {
	want, err := reference(sampler.LocalStore{G: w.g}, w.cfg, w.probes)
	if err != nil {
		return err
	}
	return checkProbes("serve-tcp", w.probes, want, func(roots []graph.NodeID) (*sampler.Result, error) {
		return w.ex.Sample(context.Background(), roots)
	})
}

func (w *serveTCP) measure(ctx context.Context, d time.Duration) ([]sample, time.Duration) {
	w.mark = w.counters()
	return closedLoop(ctx, runtime.NumCPU(), d, func(ctx context.Context, _ int, batch int64) bool {
		roots := w.pool[int(batch)%len(w.pool)]
		ctx = withBatch(ctx, batch)
		var o open
		if w.rec != nil {
			ctx, o = w.rec.begin(ctx, "pipeline.Executor.Sample")
		}
		res, err := w.ex.Sample(ctx, roots)
		if w.rec != nil {
			o.end()
		}
		return w.errs.batch(res, err, roots, w.cfg, w.g.NumNodes(), w.g.AttrLen())
	})
}

func (w *serveTCP) counters() serveMark {
	m := serveMark{
		stalls:  w.ex.Stats().WindowStalls(),
		frames:  w.client.Pack.Frames(),
		subs:    w.client.Pack.Requests(),
		retries: w.client.Res.Snapshot().Retries,
	}
	for _, g := range w.gates {
		st := g.Stats()
		m.admitted += st.Admitted()
		m.rejected += st.Shed() + st.RateLimited() + st.AuthFailures()
	}
	if w.rec != nil {
		m.spans = len(w.rec.Spans())
		m.wireBytes = w.wire.bytes.Load()
		for _, b := range w.backends {
			m.backendNs += b.ns.Load()
			m.backendCalls += b.calls.Load()
		}
	}
	return m
}

func (w *serveTCP) verify() error { return w.errs.err() }

func (w *serveTCP) layers(samples []sample) map[string]float64 {
	now := w.counters()
	spans := w.rec.Spans()[w.mark.spans:]
	roots := float64(completed(samples) * serveBatchRoots)
	batches := float64(completed(samples))
	byBatch := map[int64]*batchSpans{}
	var transport, outer, inner []Span
	for _, s := range spans {
		switch s.Name {
		case "pipeline.Executor.Sample":
			batchOf(byBatch, s.Batch).top = s
		case "sampler.Store.NeighborsBatch", "sampler.Store.AttrsBatch":
			b := batchOf(byBatch, s.Batch)
			b.children = append(b.children, spanInterval(s))
		case "cluster.Transport.Call":
			transport = append(transport, s)
		case "gateway.WireGate.Handle":
			outer = append(outer, s)
		case "cluster.Server.Handle":
			inner = append(inner, s)
		}
	}
	wireIv := intervals(transport)
	var self, overlap, clientSelf []float64
	for _, b := range byBatch {
		if b.top.ID == 0 {
			continue
		}
		top := spanInterval(b.top)
		self = append(self, float64(selfTime(top, b.children))/1e6)
		if u := unionLen(b.children); u > 0 {
			overlap = append(overlap, float64(sumLen(b.children))/float64(u))
		}
		clientSelf = append(clientSelf, float64(uncovered(b.children, wireIv))/1e6)
	}
	backendNs := now.backendNs - w.mark.backendNs
	backendCalls := now.backendCalls - w.mark.backendCalls
	frames := float64(len(transport))
	admitted := float64(now.admitted - w.mark.admitted)
	rejected := float64(now.rejected - w.mark.rejected)
	out := map[string]float64{
		"pipeline.self_ms":                 median(self),
		"pipeline.fetch_overlap":           mean(overlap),
		"pipeline.window_stalls_per_batch": ratio(float64(now.stalls-w.mark.stalls), batches),
		"cluster.client_self_ms":           median(clientSelf),
		"cluster.rpc_ms":                   median(durationsMs(transport)),
		"cluster.wire_ms":                  ratio(float64(sumDur(transport)-sumDur(outer))/1e6, batches),
		"gateway.wire_self_us":             ratio(float64(sumDur(outer)-sumDur(inner))/1e3, frames),
		"cluster.server_self_us":           ratio(float64(sumDur(inner)-backendNs)/1e3, frames),
		"cluster.frames_per_root":          ratio(frames, roots),
		"cluster.wire_bytes_per_root":      ratio(float64(now.wireBytes-w.mark.wireBytes), roots),
		"cluster.pack_ratio":               ratio(float64(now.subs-w.mark.subs), float64(now.frames-w.mark.frames)),
		"cluster.retries":                  float64(now.retries - w.mark.retries),
		"gateway.rejected_ratio":           ratio(rejected, admitted+rejected),
		"store.read_ms":                    ratio(float64(backendNs)/1e6, batches),
		"store.ids_per_root":               ratio(float64(backendCalls), roots),
	}
	return out
}

func (w *serveTCP) close() error {
	if w.tr != nil {
		w.tr.Close()
	}
	var errs []error
	for _, ts := range w.tcp {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, ts.Shutdown(ctx))
		cancel()
	}
	w.tcp = nil
	return errors.Join(errs...)
}
