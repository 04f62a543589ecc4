// Package sampler implements the software graph-sampling baseline (the
// AliGraph-style CPU path the paper measures against) and the two random
// sampling algorithms compared in Section 4.2 Tech-2: conventional
// reservoir sampling and the paper's streaming step-based sampling.
package sampler

import (
	"context"
	"fmt"
	"math/rand"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
)

// Store abstracts graph storage so the same sampler runs against a local
// graph, a distributed cluster client, or the AxE functional engine. The
// interface is batch-first and context-aware: every fetch moves a vector
// of vertices in one call, so a remote-backed store turns one hop into a
// handful of grouped RPCs instead of a per-node round trip, and deadlines
// and cancellation propagate down to the transport.
type Store interface {
	// NumNodes returns the vertex count.
	NumNodes() int64
	// AttrLen returns the attribute vector length.
	AttrLen() int
	// NeighborsBatch fills dst[i] with the out-neighbors of vs[i]. dst must
	// have len(vs) entries. The filled lists must not be modified. A store
	// that can lose part of a fetch (a cluster client with lost shards)
	// fills what it has, leaving nil for lost vertices, and returns an
	// error describing the loss. Sampler.Sample aborts on any error;
	// degrading around the loss is the caller's policy (the cluster
	// client's PartialResults, the pipeline's per-root degradation).
	NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error
	// AttrsBatch fills dst with the attribute vectors of vs, concatenated
	// in order. dst must have len(vs)*AttrLen() entries. A store that
	// loses part of a fetch leaves lost vertices zeroed and returns an
	// error.
	AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error
}

// Method selects the neighbor-sampling algorithm.
type Method int

// Sampling methods.
const (
	// Reservoir is the conventional approach: buffer all N candidates,
	// then draw K without replacement (N storage, N+K steps).
	Reservoir Method = iota
	// Streaming is the paper's step-based approximate sampling: split the
	// incoming N candidates into K contiguous groups and pick one uniform
	// element per group (no storage, N steps, pipeline-friendly).
	Streaming
)

func (m Method) String() string {
	switch m {
	case Reservoir:
		return "reservoir"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SampleNeighbors draws up to k of candidates using method m. When the
// candidate list has at most k entries, all are returned (standard GNN
// fanout semantics). The result is appended to dst.
//
// cycles is the abstract step count of the hardware implementation:
// len(candidates)+k for Reservoir (fill then draw), len(candidates) for
// Streaming — the Tech-2 latency claim.
func SampleNeighbors(dst []graph.NodeID, candidates []graph.NodeID, k int, m Method, rng *rand.Rand) (out []graph.NodeID, cycles int) {
	n := len(candidates)
	if k <= 0 || n == 0 {
		return dst, n
	}
	if n <= k {
		return append(dst, candidates...), n + min(n, k)
	}
	switch m {
	case Reservoir:
		// Partial Fisher–Yates over a pooled scratch copy: exact uniform
		// K-of-N without replacement, no per-call allocation.
		scratch := mem.IDs.Get(n)
		copy(scratch, candidates)
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
		}
		dst = append(dst, scratch[:k]...)
		mem.IDs.Put(scratch)
		return dst, n + k
	case Streaming:
		// K groups in arrival order; one uniform pick per group. Group
		// sizes differ by at most one (remainder spread over the first
		// groups), keeping per-element inclusion probability ≈ k/n.
		q, r := n/k, n%k
		start := 0
		for g := 0; g < k; g++ {
			size := q
			if g < r {
				size++
			}
			dst = append(dst, candidates[start+rng.Intn(size)])
			start += size
		}
		return dst, n
	default:
		panic(fmt.Sprintf("sampler: unknown method %v", m))
	}
}

// Result holds one mini-batch sampling outcome in the AliGraph layout:
// per-hop flattened node lists plus fetched attributes.
type Result struct {
	Roots []graph.NodeID
	// Hops[h] lists sampled nodes at hop h+1, fanout-aligned: node i of
	// hop h expands to entries [i*f, (i+1)*f) of hop h+1 (padded with the
	// parent node when a vertex has no neighbors, matching framework
	// self-loop fallback).
	Hops [][]graph.NodeID
	// Negatives holds NegativeRate uniform negative samples per root.
	Negatives []graph.NodeID
	// Attrs concatenates attribute vectors for roots, all hops, then
	// negatives, in order.
	Attrs []float32
	// Cycles is the abstract sampling step count (for Tech-2 accounting).
	Cycles int

	// region owns the pooled buffers behind Hops/Negatives/Attrs when the
	// result came off an execution path wired to internal/mem; Release
	// recycles them.
	region *mem.Region
}

// Release returns the result's pooled buffers (hops, negatives,
// attributes — never the caller-provided Roots) to the shared free lists.
// After Release the result and every slice read from it are invalid; a
// caller still holding sub-slices must not call Release until it is done
// with them. Safe to call on results from non-pooled paths and safe to
// call twice — both are no-ops.
func (r *Result) Release() {
	rg := r.region
	if rg == nil {
		return
	}
	r.region = nil
	r.Hops, r.Negatives, r.Attrs = nil, nil, nil
	rg.Release()
}

// Own attaches the region whose buffers back this result, arming Release.
// For execution paths (the pipeline) that assemble Results from region
// allocations themselves.
func (r *Result) Own(rg *mem.Region) { r.region = rg }

// NodesFetched returns the number of attribute vectors in Attrs.
func (r *Result) NodesFetched(attrLen int) int {
	if attrLen == 0 {
		return 0
	}
	return len(r.Attrs) / attrLen
}

// Config configures a k-hop sampler.
type Config struct {
	Fanouts      []int
	NegativeRate int
	Method       Method
	FetchAttrs   bool
	Seed         int64
	// WeightFn, when set, switches neighbor selection to importance
	// weighting (e.g. DegreeWeight) while keeping Method's hardware shape.
	// It applies on every path: the Sampler, the cluster client, the
	// pipeline, the AxE engine and meta-paths. DegreeWeight over a
	// cluster client costs one grouped RPC per candidate.
	WeightFn WeightFunc
	// RootStreams switches random-number use from one shared batch stream
	// to derived per-root, per-node streams (see Kernel): every expansion
	// draws from an RNG seeded by (Seed, root index, hop, position), so
	// the sampled output is independent of execution order. This is what
	// lets the out-of-order pipeline executor and the AxE engine retire
	// work in any order and still produce byte-identical results to the
	// synchronous path.
	RootStreams bool
}

// Sampler performs mini-batch k-hop sampling over a Store. A Sampler is
// not safe for concurrent Sample calls (it carries one shared RNG stream
// from batch to batch); use one Sampler per worker.
type Sampler struct {
	store Store
	// views, when set, serves hop h's neighbor fetches from views[h] (one
	// relation per meta-path hop); store still answers NumNodes and
	// attributes.
	views []Store
	cfg   Config
	// rng is the shared stream, nil under RootStreams.
	rng *rand.Rand
}

// New creates a sampler. It panics on an empty fanout list since that
// always indicates a miswired workload.
func New(store Store, cfg Config) *Sampler {
	if len(cfg.Fanouts) == 0 {
		panic("sampler: no fanouts configured")
	}
	s := &Sampler{store: store, cfg: cfg}
	if !cfg.RootStreams {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return s
}

// SampleBatch runs k-hop sampling for the given roots with no deadline,
// for stores that cannot fail (a local graph, a relation view): it drops
// Sample's error, so a failing store yields a nil result.
func (s *Sampler) SampleBatch(roots []graph.NodeID) *Result {
	res, _ := s.Sample(context.Background(), roots)
	return res
}

// Sample runs k-hop sampling for the given roots. Each hop fetches the
// whole frontier through one NeighborsBatch call, then expands it in
// frontier order through the Kernel. Any store error aborts the batch:
// Sample returns (nil, ctx.Err()) once ctx is done, else (nil, err).
// Degrading a batch around lost data is the caller's policy (the cluster
// client and the pipeline each implement one), not the sampler's.
//
// The result's hop, negative and attribute buffers come from the shared
// internal/mem pools; call Result.Release when done with it to recycle
// them (dropping the result without Release is safe, just unrecycled).
func (s *Sampler) Sample(ctx context.Context, roots []graph.NodeID) (*Result, error) {
	k := newKernel(s.cfg, s.rng)
	defer k.Release()
	rg := mem.NewRegion()
	res := &Result{Roots: roots, region: rg}
	abort := func(err error) (*Result, error) {
		res.Release()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	frontier := roots
	for h, fanout := range s.cfg.Fanouts {
		st := s.store
		if s.views != nil {
			st = s.views[h]
		}
		lists := mem.Lists.Get(len(frontier))
		if err := st.NeighborsBatch(ctx, lists, frontier); err != nil {
			mem.Lists.Put(lists)
			return abort(err)
		}
		// Each frontier node contributes exactly fanout entries, so the
		// hop buffer's size is exact; the capped slice turns any overflow
		// into a reallocation instead of silent growth into pooled
		// capacity.
		hopBuf := rg.IDs(len(frontier) * fanout)
		var cyc int
		frontier, cyc = k.Expand(hopBuf[:0:len(hopBuf)], h, 0, frontier, lists)
		mem.Lists.Put(lists)
		res.Cycles += cyc
		res.Hops = append(res.Hops, frontier)
	}
	if s.cfg.NegativeRate > 0 {
		negBuf := rg.IDs(len(roots) * s.cfg.NegativeRate)
		res.Negatives = k.Negatives(negBuf[:0:len(negBuf)], 0, len(roots), s.store.NumNodes())
	}
	if s.cfg.FetchAttrs {
		if err := s.fetchAttrs(ctx, res); err != nil {
			return abort(err)
		}
	}
	return res, nil
}

func (s *Sampler) fetchAttrs(ctx context.Context, res *Result) error {
	total := len(res.Roots) + len(res.Negatives)
	for _, h := range res.Hops {
		total += len(h)
	}
	ids := append(mem.IDs.Get(total)[:0], res.Roots...)
	for _, hop := range res.Hops {
		ids = append(ids, hop...)
	}
	ids = append(ids, res.Negatives...)
	// Zeroed: degrading stores leave lost vertices at zero fill.
	res.Attrs = res.region.Floats(total*s.store.AttrLen(), true)
	err := s.store.AttrsBatch(ctx, res.Attrs, ids)
	mem.IDs.Put(ids)
	return err
}

// LocalStore adapts a *graph.Graph to the Store interface.
//
// Deprecated for facade callers: building a backend by hand with
// LocalStore{G: g} predates the storage tier. Deployments choose a
// backend through lsdgnn.WithStore (store.InMemory wraps a graph the
// same way; store.Open serves from disk), which also owns the handle's
// lifecycle. LocalStore stays exported as the zero-cost in-memory
// reference backend the parity tests compare every other Store against.
type LocalStore struct{ G *graph.Graph }

// NumNodes implements Store.
func (l LocalStore) NumNodes() int64 { return l.G.NumNodes() }

// AttrLen implements Store.
func (l LocalStore) AttrLen() int { return l.G.AttrLen() }

// NeighborsBatch implements Store.
func (l LocalStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, v := range vs {
		dst[i] = l.G.Neighbors(v)
	}
	return nil
}

// AttrsBatch implements Store.
func (l LocalStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	al := l.G.AttrLen()
	for i, v := range vs {
		l.G.Attr(dst[i*al:i*al], v)
	}
	return nil
}
