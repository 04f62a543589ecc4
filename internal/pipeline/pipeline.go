// Package pipeline is the software model of the AxE load unit (Section
// 4.2 Tech-3, Fig. 8): an asynchronous, out-of-order sampling executor.
// The hardware hides seconds-scale remote-memory latency by keeping a
// massive number of outstanding requests in flight and retiring them in
// completion order; this package does the same over the batch-first
// sampler.Store — a multi-hop batch decomposes into per-root, per-hop
// fetch tasks that flow through a bounded in-flight window, so hop h+1 of
// fast roots overlaps hop h of slow ones and one straggling shard no
// longer stalls the whole batch.
//
// Out-of-order execution is only usable if it does not change answers.
// Expansion and negatives go through sampler.Kernel with
// sampler.Config.RootStreams forced on, so every draw comes from a
// derived stream and the sampled output is a pure function of (seed,
// root, hop, position) — byte-identical to the synchronous path no
// matter how the window reorders completions.
//
// Degradation is this package's policy, not the store's or the
// sampler's: a failed fetch degrades only the root that issued it (self-
// loop padding, zeroed attributes) and the batch reports a
// *PartialError, while a ctx expiry aborts the whole batch.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// DefaultWindow is the default in-flight window, in node-requests. The
// paper's load unit sustains hundreds of outstanding accesses per engine;
// 256 keeps a software worker far enough ahead of a 100µs-scale network
// to saturate it without unbounded buffering.
const DefaultWindow = 256

// Config tunes the out-of-order executor.
type Config struct {
	// Window bounds the outstanding node-requests (vertices whose
	// neighbor lists or attribute vectors are on the wire) across the
	// whole batch. 0 means DefaultWindow. Window 1 degenerates to a
	// blocking load unit — the synchronous reference point benchmarks
	// compare against.
	Window int
	// MaxHopOverlap bounds how many hops the fastest root may run ahead
	// of the slowest unfinished one (the reorder depth of the retire
	// stage). 0 means unbounded overlap.
	MaxHopOverlap int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxHopOverlap < 0 {
		c.MaxHopOverlap = 0
	}
	return c
}

// RootError reports the failure of one root's subtree.
type RootError struct {
	// Index is the root's position in the batch.
	Index int
	// Root is the root vertex.
	Root graph.NodeID
	// Err is the underlying fetch error.
	Err error
}

// PartialError reports that some roots of a batch degraded: their
// subtrees carry self-loop padding and zeroed attributes where data was
// lost, while every other root is complete and exact. The Result
// accompanying a PartialError is always layout-complete.
type PartialError struct {
	Roots []RootError
}

// Error implements error.
func (e *PartialError) Error() string {
	if len(e.Roots) == 1 {
		return fmt.Sprintf("pipeline: root %d degraded: %v", e.Roots[0].Root, e.Roots[0].Err)
	}
	return fmt.Sprintf("pipeline: %d roots degraded (first: root %d: %v)",
		len(e.Roots), e.Roots[0].Root, e.Roots[0].Err)
}

// AsPartial extracts a *PartialError from err.
func AsPartial(err error) (*PartialError, bool) {
	var pe *PartialError
	ok := errors.As(err, &pe)
	return pe, ok
}

// Executor runs out-of-order k-hop sampling batches over a Store. Safe
// for concurrent Sample calls; they share the stats layer but each batch
// has its own window.
type Executor struct {
	store  sampler.Store
	scfg   sampler.Config
	cfg    Config
	tracer *obs.Tracer
	slo    *stats.SLO
	stats  Stats
}

// New builds an executor. scfg.RootStreams is forced on — per-root RNG
// streams are what make out-of-order retirement deterministic — so the
// output matches any other RootStreams path (synchronous Sampler,
// cluster client, AxE engine) for the same seed. Panics on an empty
// fanout list, like sampler.New.
func New(store sampler.Store, scfg sampler.Config, cfg Config) *Executor {
	if len(scfg.Fanouts) == 0 {
		panic("pipeline: no fanouts configured")
	}
	scfg.RootStreams = true
	e := &Executor{store: store, scfg: scfg, cfg: cfg.withDefaults()}
	e.stats.setCapacity(e.cfg.Window)
	return e
}

// Occupancy returns the window's current fill fraction in [0, 1] — the
// live backpressure signal the serving gateway sheds on.
func (e *Executor) Occupancy() float64 { return e.stats.Occupancy() }

// Config returns the executor configuration (defaults applied).
func (e *Executor) Config() Config { return e.cfg }

// SamplerConfig returns the sampling configuration (RootStreams forced).
func (e *Executor) SamplerConfig() sampler.Config { return e.scfg }

// Stats exposes the executor's "pipeline" stats layer.
func (e *Executor) Stats() *Stats { return &e.stats }

// SetTracer attaches a hop tracer; fetch tasks then record HopPipeWait
// (window stall) and HopPipeFetch (store round trip) spans.
func (e *Executor) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// SetSLO classifies every Sample against a latency objective: completed
// batches (degraded included) are good iff within the threshold, aborted
// batches are bad.
func (e *Executor) SetSLO(s *stats.SLO) { e.slo = s }

// window is the bounded in-flight request pool, counted in
// node-requests. Oversized acquisitions clamp to the window capacity so
// a single huge fetch (a frontier wider than the window) still admits,
// alone, rather than deadlocking.
type window struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	inUse  int
	stats  *Stats
	tracer *obs.Tracer
	id     obs.TraceID
}

func newWindow(capacity int, st *Stats, tr *obs.Tracer, id obs.TraceID) *window {
	w := &window{cap: capacity, stats: st, tracer: tr, id: id}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until n request slots are free (or ctx expires),
// returning the clamped slot count actually held.
func (w *window) acquire(ctx context.Context, n int) (int, error) {
	if n > w.cap {
		n = w.cap
	}
	start := time.Now()
	w.mu.Lock()
	stalled := false
	for w.cap-w.inUse < n && ctx.Err() == nil {
		if !stalled {
			stalled = true
			w.stats.windowStalls.Inc()
		}
		w.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.inUse += n
	w.stats.recordInflight(w.inUse)
	w.mu.Unlock()
	if stalled {
		w.tracer.Observe(w.id, obs.HopPipeWait, start, time.Since(start))
	}
	return n, nil
}

func (w *window) release(n int) {
	w.mu.Lock()
	w.inUse -= n
	w.stats.recordInflight(w.inUse)
	w.mu.Unlock()
	w.cond.Broadcast()
}

// batch is the per-Sample execution state.
type batch struct {
	e   *Executor
	id  obs.TraceID
	res *sampler.Result
	win *window

	attrLen int
	lay     sampler.Layout

	// Retire-stage bookkeeping for MaxHopOverlap: stage[r] is the hop
	// root r is about to fetch (len(fanouts)+1 once fully retired).
	mu    sync.Mutex
	cond  *sync.Cond
	stage []int

	cycles []int // per-root cycle counts (disjoint writes, summed at end)

	errMu    sync.Mutex
	rootErrs []RootError
}

// Sample runs one out-of-order k-hop batch. The result layout is
// identical to sampler.Sampler.Sample — and, for the same seed, the
// contents are byte-identical, whatever the window size or completion
// order. A ctx expiry returns (nil, ctx.Err()); per-root store failures
// degrade only their own subtree and surface as a *PartialError
// alongside the layout-complete result.
func (e *Executor) Sample(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	id, ok := obs.FromContext(ctx)
	if !ok {
		id = obs.NewTraceID()
	}

	b := &batch{
		e:       e,
		id:      id,
		attrLen: e.store.AttrLen(),
		stage:   make([]int, len(roots)),
		cycles:  make([]int, len(roots)),
	}
	b.cond = sync.NewCond(&b.mu)
	b.win = newWindow(e.cfg.Window, &e.stats, e.tracer, id)

	// Preallocate the exact result layout so retirement is a lock-free
	// write into disjoint segments. Segments come from a region the caller
	// recycles via Result.Release; every retired root fully writes its
	// slice of each segment (self-loop padding included), so no zero fill
	// is needed on the ID buffers.
	sp := e.scfg
	rg := mem.NewRegion()
	res := &sampler.Result{Roots: roots}
	res.Own(rg)
	b.lay = sampler.NewLayout(sp, len(roots))
	for h := range sp.Fanouts {
		res.Hops = append(res.Hops, rg.IDs(len(roots)*b.lay.Width[h+1]))
	}
	if sp.NegativeRate > 0 {
		// Negatives need no graph I/O; draw them up front.
		negBuf := rg.IDs(len(roots) * sp.NegativeRate)
		k := sampler.NewKernel(sp, sp.Seed)
		res.Negatives = k.Negatives(negBuf[:0], 0, len(roots), e.store.NumNodes())
		k.Release()
	}
	if sp.FetchAttrs {
		res.Attrs = rg.Floats(b.lay.Slots*b.attrLen, true)
	}
	b.res = res

	// Wake window and stage waiters when the batch context dies.
	go func() {
		<-ctx.Done()
		b.win.cond.Broadcast()
		b.cond.Broadcast()
	}()

	var wg sync.WaitGroup
	for r := range roots {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b.runRoot(ctx, r)
		}(r)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		e.stats.batchErrors.Inc()
		e.slo.ObserveLatency(time.Since(start), true)
		// All root goroutines have retired; the discarded result's
		// segments can go straight back to the pools.
		res.Release()
		return nil, err
	}
	for _, c := range b.cycles {
		res.Cycles += c
	}
	e.stats.batches.Inc()
	dur := time.Since(start)
	e.stats.batchLatency.ObserveDuration(dur)
	e.stats.batchWindow.ObserveDuration(dur)
	e.slo.ObserveLatency(dur, false)
	if len(b.rootErrs) > 0 {
		e.stats.degradedRoots.Add(int64(len(b.rootErrs)))
		return res, &PartialError{Roots: b.rootErrs}
	}
	return res, nil
}

// runRoot drives one root through every hop and its attribute gather.
func (b *batch) runRoot(ctx context.Context, r int) {
	e := b.e
	sp := e.scfg
	root := b.res.Roots[r]
	frontier := []graph.NodeID{root}
	var rootErr error
	k := sampler.NewKernel(sp, sp.Seed)
	defer k.Release()

	for h := range sp.Fanouts {
		if err := b.waitStage(ctx, h); err != nil {
			b.retire(r, err)
			return
		}
		lists := mem.Lists.Get(len(frontier))
		err := b.fetch(ctx, len(frontier), func() error {
			return e.store.NeighborsBatch(ctx, lists, frontier)
		})
		if err != nil {
			if ctx.Err() != nil {
				mem.Lists.Put(lists)
				b.retire(r, ctx.Err())
				return
			}
			// Degraded fetch: lists stay layout-complete (nil entries
			// expand to self-loop padding); only this root is marked.
			if rootErr == nil {
				rootErr = err
			}
		}
		w := b.lay.Width[h+1]
		out, cyc := k.Expand(b.res.Hops[h][r*w:r*w:(r+1)*w], h, r*b.lay.Width[h], frontier, lists)
		b.cycles[r] += cyc
		mem.Lists.Put(lists)
		frontier = out
		b.advance(r)
	}

	if sp.FetchAttrs {
		if err := b.fetchRootAttrs(ctx, r); err != nil {
			if ctx.Err() != nil {
				b.retire(r, ctx.Err())
				return
			}
			if rootErr == nil {
				rootErr = err
			}
		}
	}
	b.retire(r, rootErr)
}

// fetchRootAttrs gathers every attribute vector belonging to root r —
// the root itself, its segment of each hop, its negatives — in one
// batched fetch, then block-copies the pieces into their slots of the
// shared Attrs layout.
func (b *batch) fetchRootAttrs(ctx context.Context, r int) error {
	e := b.e
	res := b.res
	sp := e.scfg
	al := b.attrLen

	total := 1 + sp.NegativeRate
	for _, w := range b.lay.Width[1:] {
		total += w
	}
	idBuf := mem.IDs.Get(total)
	defer mem.IDs.Put(idBuf)
	ids := append(idBuf[:0], res.Roots[r])
	for h := range sp.Fanouts {
		w := b.lay.Width[h+1]
		ids = append(ids, res.Hops[h][r*w:(r+1)*w]...)
	}
	ids = append(ids, res.Negatives[r*sp.NegativeRate:(r+1)*sp.NegativeRate]...)

	// Zeroed scratch: lost vertices must land as zero fill in Attrs.
	scratch := mem.Floats.GetZeroed(len(ids) * al)
	defer mem.Floats.Put(scratch)
	err := b.fetch(ctx, len(ids), func() error {
		return e.store.AttrsBatch(ctx, scratch, ids)
	})
	if err != nil && ctx.Err() != nil {
		return err
	}

	copy(res.Attrs[r*al:(r+1)*al], scratch[:al])
	off := al
	for h := range sp.Fanouts {
		base := (b.lay.HopBase[h] + r*b.lay.Width[h+1]) * al
		n := b.lay.Width[h+1] * al
		copy(res.Attrs[base:base+n], scratch[off:off+n])
		off += n
	}
	if sp.NegativeRate > 0 {
		base := (b.lay.NegBase + r*sp.NegativeRate) * al
		n := sp.NegativeRate * al
		copy(res.Attrs[base:base+n], scratch[off:off+n])
	}
	return err
}

// fetch pushes one task of n node-requests through the window, tracing
// the stall and the store round trip.
func (b *batch) fetch(ctx context.Context, n int, fn func() error) error {
	e := b.e
	held, err := b.win.acquire(ctx, n)
	if err != nil {
		return err
	}
	e.stats.issuedTasks.Inc()
	e.stats.issuedRequests.Add(int64(n))
	start := time.Now()
	err = fn()
	e.tracer.ObserveErr(b.id, obs.HopPipeFetch, "", start, time.Since(start), err != nil)
	b.win.release(held)
	e.stats.retiredTasks.Inc()
	e.stats.retiredRequests.Add(int64(n))
	return err
}

// waitStage blocks root entry into hop h until it is within
// MaxHopOverlap hops of the slowest unfinished root, and records the
// batch's instantaneous overlap depth.
func (b *batch) waitStage(ctx context.Context, h int) error {
	limit := b.e.cfg.MaxHopOverlap
	b.mu.Lock()
	if limit > 0 {
		for h-b.minStageLocked() > limit && ctx.Err() == nil {
			b.cond.Wait()
		}
	}
	depth := h - b.minStageLocked()
	b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if depth > 0 {
		b.e.stats.overlapDepth.Observe(float64(depth))
	} else {
		b.e.stats.overlapDepth.Observe(0)
	}
	return nil
}

// minStageLocked returns the slowest unfinished root's stage; roots past
// the last hop no longer hold anyone back.
func (b *batch) minStageLocked() int {
	hops := len(b.e.scfg.Fanouts)
	min := hops
	for _, s := range b.stage {
		if s < hops && s < min {
			min = s
		}
	}
	return min
}

// advance moves root r to its next hop stage.
func (b *batch) advance(r int) {
	b.mu.Lock()
	b.stage[r]++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// retire marks root r finished, recording its error (if any).
func (b *batch) retire(r int, err error) {
	b.mu.Lock()
	b.stage[r] = len(b.e.scfg.Fanouts) + 1
	b.mu.Unlock()
	b.cond.Broadcast()
	if err != nil {
		b.errMu.Lock()
		b.rootErrs = append(b.rootErrs, RootError{Index: r, Root: b.res.Roots[r], Err: err})
		b.errMu.Unlock()
	}
}
