package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
)

// disk-ingest: writes beside reads. In one round a writer appends a fixed
// seeded stream of edges to a DiskStore (SyncOS write-ahead log),
// compacting every ingestCompactEvery edges, while a reader samples a
// fixed number of 512-root batches through sampler.New over the same
// store; the round ends when both are done. The store's budget covers the
// whole segment, so reads never page; what the reader pays for is the
// memtable overlay, compaction and the store lock it shares with the
// writer. Rounds repeat on a fresh store until the measured time is used
// up. Both halves of a round are fixed work, so allocations per root do
// not depend on how fast one side ran against the other.
const (
	ingestBatchRoots   = 512
	ingestEdges        = 40_000
	ingestCompactEvery = 15_000
	// ingestBatches is the reader's share of a round, sized so that on a
	// 2-vCPU host it takes about as long as the writer's.
	ingestBatches = 20
	// ingestBudget holds the whole segment, however far a round grows it.
	ingestBudget = 32 << 20
	// appendSampleEvery: a traced run times one AddEdge call in this many.
	appendSampleEvery = 16
)

type diskIngest struct {
	g      *graph.Graph
	cfg    sampler.Config
	in     inputs
	edges  [][2]graph.NodeID
	dir    string
	ds     *store.DiskStore
	st     *store.Stats
	dirty  bool // the store has taken writes since it was created
	pool   [][]graph.NodeID
	probes [][]graph.NodeID
	next   atomic.Int64
	errs   errLog

	// Totals of the last measure call.
	edgesWritten, writerNs int64
	peakRes                int64
	storeIDs               int64

	rec      *Recorder
	appendNs []int64
	compacts []Span
	mark     ingestMark
}

type ingestMark struct {
	hits, misses int64
	spans        int
}

func buildDiskIngest(in inputs, rec *Recorder) (instance, error) {
	w := &diskIngest{g: ssGraph(), cfg: paperSampling(in.seed), in: in, rec: rec}
	if err := w.open(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(streamSeed(in.seed, streamEdges)))
	n := w.g.NumNodes()
	w.edges = make([][2]graph.NodeID, ingestEdges)
	for i := range w.edges {
		w.edges[i] = [2]graph.NodeID{graph.NodeID(rng.Int63n(n)), graph.NodeID(rng.Int63n(n))}
	}
	w.pool = rootPool(in.seed, streamRoots, 64, ingestBatchRoots, n)
	w.probes = rootPool(in.seed, streamProbes, probeBatches, probeRoots, n)
	return w, nil
}

// open bulk-loads the base graph into a fresh store directory and opens it.
func (w *diskIngest) open() error {
	w.dir = filepath.Join(w.in.dataDir, fmt.Sprintf("ingest-%d", time.Now().UnixNano()))
	if err := store.Create(w.dir, w.g); err != nil {
		return err
	}
	w.st = &store.Stats{}
	ds, err := store.Open(w.dir, store.WithMemoryBudget(ingestBudget),
		store.WithSyncMode(store.SyncOS), store.WithStats(w.st))
	if err != nil {
		return err
	}
	w.ds, w.dirty = ds, false
	if seg := ds.SegmentBytes(); seg > ingestBudget {
		return fmt.Errorf("disk-ingest: segment %d bytes exceeds the %d-byte budget", seg, ingestBudget)
	}
	return nil
}

func (w *diskIngest) probe() error {
	want, err := reference(sampler.LocalStore{G: w.g}, w.cfg, w.probes)
	if err != nil {
		return err
	}
	return checkProbes("disk-ingest", w.probes, want, w.sampleFresh)
}

func (w *diskIngest) sampleFresh(roots []graph.NodeID) (*sampler.Result, error) {
	return sampler.New(w.ds, w.cfg).Sample(context.Background(), roots)
}

// measure runs whole rounds until their summed duration reaches d and
// returns that sum as the measured time: the store resets between rounds
// are not measured.
func (w *diskIngest) measure(ctx context.Context, d time.Duration) ([]sample, time.Duration) {
	if w.rec != nil {
		w.mark = ingestMark{hits: w.st.CacheHits(), misses: w.st.CacheMisses(), spans: len(w.rec.Spans())}
		w.appendNs, w.compacts = w.appendNs[:0], w.compacts[:0]
	}
	w.edgesWritten, w.writerNs, w.peakRes, w.storeIDs = 0, 0, 0, 0
	var out []sample
	var busy int64
	for busy < int64(d) && ctx.Err() == nil {
		if w.dirty {
			if err := w.reset(); err != nil {
				now := clock()
				out = append(out, sample{due: now, start: now, end: now, failed: true})
				w.errs.record(err)
				break
			}
		}
		samples, dur := w.round(ctx)
		out = append(out, samples...)
		busy += dur
	}
	return out, time.Duration(busy)
}

func (w *diskIngest) reset() error {
	err := w.ds.Close()
	w.ds = nil
	if err := errors.Join(err, os.RemoveAll(w.dir)); err != nil {
		return err
	}
	if w.rec != nil {
		// Carry the cache counters across the fresh store's new Stats.
		w.mark.hits -= w.st.CacheHits()
		w.mark.misses -= w.st.CacheMisses()
	}
	return w.open()
}

// round runs the fixed work once: the writer's edge stream with its
// compactions, and the reader's batches alongside it.
func (w *diskIngest) round(ctx context.Context) ([]sample, int64) {
	w.dirty = true
	t0 := clock()
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		err := w.write()
		w.writerNs += int64(time.Since(start))
		done <- err
	}()
	var store sampler.Store = w.ds
	if w.rec != nil {
		ts := &tracedStore{inner: w.ds, r: w.rec}
		defer func() { w.storeIDs += ts.ids.Load() }()
		store = ts
	}
	s := sampler.New(store, w.cfg)
	var out []sample
	due := t0
	for i := 0; i < ingestBatches; i++ {
		batch := w.next.Add(1)
		roots := w.pool[int(batch)%len(w.pool)]
		bctx := withBatch(ctx, batch)
		smp := sample{batch: batch, due: due, start: clock()}
		var o open
		if w.rec != nil {
			bctx, o = w.rec.begin(bctx, "sampler.Sampler.Sample")
		}
		res, err := s.Sample(bctx, roots)
		if w.rec != nil {
			o.end()
		}
		smp.end = clock()
		if r := w.ds.Resident(); r > w.peakRes {
			w.peakRes = r
		}
		smp.failed = w.errs.batch(res, err, roots, w.cfg, w.g.NumNodes(), w.g.AttrLen())
		out = append(out, smp)
		due = smp.end
	}
	if werr := <-done; werr != nil {
		w.errs.record(werr)
		out = append(out, sample{due: due, start: due, end: due, failed: true})
	}
	return out, clock() - t0
}

// write appends the edge stream, compacting every ingestCompactEvery
// edges; the stream's tail stays in the write-ahead log.
func (w *diskIngest) write() error {
	for i, e := range w.edges {
		timed := w.rec != nil && i%appendSampleEvery == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		if err := w.ds.AddEdge(e[0], e[1]); err != nil {
			return fmt.Errorf("AddEdge %d: %w", i, err)
		}
		if timed {
			w.appendNs = append(w.appendNs, int64(time.Since(start)))
		}
		w.edgesWritten++
		if (i+1)%ingestCompactEvery == 0 {
			var o open
			if w.rec != nil {
				_, o = w.rec.begin(context.Background(), "store.DiskStore.Compact")
			}
			err := w.ds.Compact()
			if w.rec != nil {
				w.compacts = append(w.compacts, o.end())
			}
			if err != nil {
				return fmt.Errorf("Compact after %d edges: %w", i+1, err)
			}
		}
	}
	return nil
}

// verify checks the store after the last round against a graph.Dynamic fed
// the same stream with the same compactions, then closes and reopens the
// store and checks that the write-ahead-log replay gives the same results.
func (w *diskIngest) verify() error {
	if err := w.errs.err(); err != nil {
		return err
	}
	if !w.dirty {
		return errors.New("disk-ingest: no round ran")
	}
	if err := w.ds.Verify(); err != nil {
		return fmt.Errorf("disk-ingest: Verify: %w", err)
	}
	if got, want := w.ds.NumEdges(), w.g.NumEdges()+ingestEdges; got != want {
		return fmt.Errorf("disk-ingest: %d edges after ingest, want %d", got, want)
	}
	dyn := graph.NewDynamic(w.g)
	for i, e := range w.edges {
		if err := dyn.AddEdge(e[0], e[1]); err != nil {
			return err
		}
		if (i+1)%ingestCompactEvery == 0 {
			if err := dyn.Compact(); err != nil {
				return err
			}
		}
	}
	if err := sameAdjacency(w.ds, dyn); err != nil {
		return err
	}
	want, err := reference(dyn, w.cfg, w.probes)
	if err != nil {
		return err
	}
	if err := checkProbes("disk-ingest after ingest", w.probes, want, w.sampleFresh); err != nil {
		return err
	}
	if err := w.ds.Close(); err != nil {
		return err
	}
	ds, err := store.Open(w.dir, store.WithMemoryBudget(ingestBudget), store.WithSyncMode(store.SyncOS))
	if err != nil {
		w.ds = nil
		return fmt.Errorf("disk-ingest: reopen: %w", err)
	}
	w.ds = ds
	if got := ds.NumEdges(); got != w.g.NumEdges()+ingestEdges {
		return fmt.Errorf("disk-ingest: %d edges after reopen, want %d", got, w.g.NumEdges()+ingestEdges)
	}
	return checkProbes("disk-ingest after reopen", w.probes, want, w.sampleFresh)
}

// sameAdjacency compares every vertex's neighbor list of two stores.
func sameAdjacency(a, b sampler.Store) error {
	n := a.NumNodes()
	const chunk = 1024
	vs := make([]graph.NodeID, 0, chunk)
	la, lb := make([][]graph.NodeID, chunk), make([][]graph.NodeID, chunk)
	for lo := int64(0); lo < n; lo += chunk {
		vs = vs[:0]
		for v := lo; v < n && v < lo+chunk; v++ {
			vs = append(vs, graph.NodeID(v))
		}
		ctx := context.Background()
		if err := a.NeighborsBatch(ctx, la[:len(vs)], vs); err != nil {
			return err
		}
		if err := b.NeighborsBatch(ctx, lb[:len(vs)], vs); err != nil {
			return err
		}
		for i, v := range vs {
			if !slices.Equal(la[i], lb[i]) {
				return fmt.Errorf("disk-ingest: neighbors of %d differ from graph.Dynamic", v)
			}
		}
	}
	return nil
}

func (w *diskIngest) layers(samples []sample) map[string]float64 {
	spans := w.rec.Spans()[w.mark.spans:]
	byBatch := map[int64]*batchSpans{}
	var storeNs int64
	for _, s := range spans {
		switch s.Name {
		case "sampler.Sampler.Sample":
			batchOf(byBatch, s.Batch).top = s
		case "sampler.Store.NeighborsBatch", "sampler.Store.AttrsBatch":
			b := batchOf(byBatch, s.Batch)
			b.children = append(b.children, spanInterval(s))
			storeNs += s.dur()
		}
	}
	var self, duringCompact []float64
	for _, b := range byBatch {
		if b.top.ID == 0 {
			continue
		}
		self = append(self, float64(selfTime(spanInterval(b.top), b.children))/1e6)
		for _, c := range w.compacts {
			if b.top.Start < c.End && c.Start < b.top.End {
				duringCompact = append(duringCompact, float64(b.top.dur())/1e6)
				break
			}
		}
	}
	batches := float64(completed(samples))
	roots := batches * ingestBatchRoots
	appendUs := make([]float64, len(w.appendNs))
	for i, ns := range w.appendNs {
		appendUs[i] = float64(ns) / 1e3
	}
	compactS := make([]float64, len(w.compacts))
	for i, c := range w.compacts {
		compactS[i] = float64(c.dur()) / 1e9
	}
	hits := float64(w.st.CacheHits() - w.mark.hits)
	misses := float64(w.st.CacheMisses() - w.mark.misses)
	return map[string]float64{
		"sampler.self_ms":              median(self),
		"store.read_ms":                ratio(float64(storeNs)/1e6, batches),
		"store.ids_per_root":           ratio(float64(w.storeIDs), roots),
		"store.hit_ratio":              ratio(hits, hits+misses),
		"store.misses_per_root":        ratio(misses, roots),
		"store.resident_peak_bytes":    float64(w.peakRes),
		"store.append_us":              median(appendUs),
		"store.compact_s":              median(compactS),
		"store.read_ms_during_compact": median(duringCompact),
		"store.ingest_edges_per_s":     ratio(float64(w.edgesWritten), float64(w.writerNs)/1e9),
	}
}

// extras reports the writer's rate, which only this workload has.
func (w *diskIngest) extras() map[string]float64 {
	return map[string]float64{"ingest_edges_per_s": ratio(float64(w.edgesWritten), float64(w.writerNs)/1e9)}
}

func (w *diskIngest) close() error {
	var err error
	if w.ds != nil {
		err = w.ds.Close()
		w.ds = nil
	}
	return errors.Join(err, os.RemoveAll(w.dir))
}
