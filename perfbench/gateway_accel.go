package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lsdgnn"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// gateway-accel: the in-process serving path with no wire and no store.
// lsdgnn.New("ss", WithGateway(...)) puts a two-tenant deficit-round-robin
// gateway in front of the core dispatcher and its AxE engines (functional
// sampling plus timing model); one closed-loop caller per tenant sends
// 64-root batches through System.SampleAs. Shedding thresholds sit above
// anything this load can reach, so any shed batch is a failure. Sampling
// is the paper's default with per-root RNG streams, the mode in which the
// engines' output is comparable with the reference sampler.
const (
	accelBatchRoots = 64
	accelTenants    = 2
	// accelInflightEvery is how often a traced run reads the dispatcher's
	// in-flight count.
	accelInflightEvery = time.Millisecond
)

type gatewayAccel struct {
	sys    *lsdgnn.System
	cfg    sampler.Config
	keys   []string
	pool   [][]graph.NodeID
	probes [][]graph.NodeID
	errs   errLog

	rec      *Recorder
	mark     accelMark
	inflight []float64
}

type accelMark struct {
	hops               map[string]stats.HistogramSnapshot
	admitted, rejected int64
	spans              int
}

var accelHops = []string{obs.HopGateWait, obs.HopDispatchWait, obs.HopEngine}

func buildGatewayAccel(in inputs, rec *Recorder) (instance, error) {
	w := &gatewayAccel{cfg: lsdgnn.DefaultSamplerConfig(in.seed), rec: rec}
	w.cfg.RootStreams = true
	var tenants []lsdgnn.TenantConfig
	for i := 0; i < accelTenants; i++ {
		key := fmt.Sprintf("tenant-%d-key", i)
		w.keys = append(w.keys, key)
		tenants = append(tenants, lsdgnn.TenantConfig{
			Name: fmt.Sprintf("tenant%d", i), Key: key, Weight: 1, SLO: 10 * time.Second,
		})
	}
	sys, err := lsdgnn.New("ss",
		lsdgnn.WithSeed(datasetSeed),
		lsdgnn.WithSampling(w.cfg),
		lsdgnn.WithGateway(lsdgnn.GatewayConfig{
			Tenants: tenants,
			// Pressure is in [0, 1] and the software-batch burn stays 0 on
			// this path: neither threshold can be crossed.
			ShedHighWater: math.Inf(1),
			BurnThreshold: math.Inf(1),
		}))
	if err != nil {
		return nil, err
	}
	w.sys = sys
	n := sys.Graph.NumNodes()
	w.pool = rootPool(in.seed, streamRoots, 256, accelBatchRoots, n)
	w.probes = rootPool(in.seed, streamProbes, probeBatches, probeRoots, n)
	return w, nil
}

func (w *gatewayAccel) probe() error {
	want, err := reference(sampler.LocalStore{G: w.sys.Graph}, w.cfg, w.probes)
	if err != nil {
		return err
	}
	return checkProbes("gateway-accel", w.probes, want, func(roots []graph.NodeID) (*sampler.Result, error) {
		return w.sys.SampleAs(context.Background(), w.keys[0], roots)
	})
}

func (w *gatewayAccel) measure(ctx context.Context, d time.Duration) ([]sample, time.Duration) {
	w.mark = w.counters()
	if w.rec != nil {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.inflight = w.inflight[:0]
			t := time.NewTicker(accelInflightEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					w.inflight = append(w.inflight, float64(w.sys.Dispatcher.Inflight()))
				}
			}
		}()
		defer func() { close(stop); wg.Wait() }()
	}
	g := w.sys.Graph
	return closedLoop(ctx, accelTenants, d, func(ctx context.Context, caller int, batch int64) bool {
		roots := w.pool[int(batch)%len(w.pool)]
		key := w.keys[caller]
		// The gateway times a batch's queue wait only under a trace ID, so
		// every batch carries one, in the untraced run too.
		ctx, _ = obs.EnsureTrace(withBatch(ctx, batch))
		var o open
		if w.rec != nil {
			ctx, o = w.rec.begin(ctx, "core.System.SampleAs")
		}
		res, err := w.sys.SampleAs(ctx, key, roots)
		if w.rec != nil {
			o.end()
		}
		return w.errs.batch(res, err, roots, w.cfg, g.NumNodes(), g.AttrLen())
	})
}

func (w *gatewayAccel) counters() accelMark {
	st := w.sys.Gateway.Stats()
	m := accelMark{
		hops:     map[string]stats.HistogramSnapshot{},
		admitted: st.Admitted(),
		rejected: st.Shed() + st.RateLimited() + st.AuthFailures(),
	}
	for _, h := range accelHops {
		m.hops[h] = w.sys.Obs.Hop(h)
	}
	if w.rec != nil {
		m.spans = len(w.rec.Spans())
	}
	return m
}

func (w *gatewayAccel) verify() error {
	if shed := w.sys.Gateway.Stats().Shed(); shed != 0 {
		return fmt.Errorf("gateway-accel: %d batches shed", shed)
	}
	return w.errs.err()
}

func (w *gatewayAccel) layers(samples []sample) map[string]float64 {
	now := w.counters()
	hop := func(name string) stats.HistogramSnapshot { return hopDelta(w.mark.hops[name], now.hops[name]) }
	gate, disp, eng := hop(obs.HopGateWait), hop(obs.HopDispatchWait), hop(obs.HopEngine)
	var top []float64
	for _, s := range w.rec.Spans()[w.mark.spans:] {
		if s.Name == "core.System.SampleAs" {
			top = append(top, float64(s.dur())/1e6)
		}
	}
	rejected := float64(now.rejected - w.mark.rejected)
	admitted := float64(now.admitted - w.mark.admitted)
	// What SampleAs spends outside the three hops the system times itself.
	residual := mean(top) - 1e3*(gate.Avg()+disp.Avg()+eng.Avg())
	return map[string]float64{
		"gateway.queue_wait_ms":     1e3 * gate.Quantile(0.5),
		"gateway.queue_wait_p99_ms": 1e3 * gate.Quantile(0.99),
		"gateway.rejected_ratio":    ratio(rejected, admitted+rejected),
		"gateway.residual_ms":       residual,
		"core.dispatch_wait_ms":     1e3 * disp.Quantile(0.5),
		"core.inflight_mean":        mean(w.inflight),
		"axe.run_ms":                1e3 * eng.Quantile(0.5),
	}
}

// hopDelta is the distribution of the observations made between two
// snapshots of one cumulative histogram.
func hopDelta(a, b stats.HistogramSnapshot) stats.HistogramSnapshot {
	before := map[float64]int64{}
	for _, bk := range a.Buckets {
		before[bk.UpperBound] = bk.Count
	}
	d := stats.HistogramSnapshot{Name: b.Name, Unit: b.Unit, Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	for _, bk := range b.Buckets {
		if c := bk.Count - before[bk.UpperBound]; c > 0 {
			d.Buckets = append(d.Buckets, stats.HistogramBucket{UpperBound: bk.UpperBound, Count: c})
		}
	}
	return d
}

func (w *gatewayAccel) close() error {
	w.sys.Close()
	return nil
}
