package sampler

import (
	"math/rand"
	"sync"

	"lsdgnn/internal/graph"
)

// The k-hop sampling kernel: the one place the paper's GetNeighbor →
// GetSample semantics (§4.2 Tech-2/Tech-3) live. Every execution path —
// the synchronous Sampler (and through it the cluster client and the
// meta-path sampler), the out-of-order pipeline, and the AxE engine's
// functional half — keeps its own I/O and timing and calls the kernel to
// expand fetched neighbor lists, draw negatives and lay out the result.
//
// Determinism. The AxE load unit retires memory responses out of order;
// a software model of it must not let completion order change the
// sampled output. Under Config.RootStreams the kernel therefore draws
// every expansion from its own stream derived purely from (batch seed,
// root index, hop, position within the root's frontier), and each root's
// negatives from a stream of their own, so any execution order produces
// byte-identical results. Without RootStreams every draw comes from one
// sequential stream, which only an in-order path can reproduce.
//
// A derived stream is math/rand's lagged-Fibonacci source reseeded in
// place with a splitmix64-folded child seed. Seeding that source
// regenerates its ~5KB feedback table without allocating, so a kernel
// repositions one pooled cursor per draw site and returns exactly what
// rand.New(rand.NewSource(child)) would.

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives a child seed from a batch seed and a tag path by
// folding each tag through splitmix64. Distinct tag paths give
// independent streams; the same path always gives the same stream.
func streamSeed(seed int64, tags ...uint64) int64 {
	z := mix64(uint64(seed))
	for _, t := range tags {
		z = mix64(z ^ mix64(t))
	}
	return int64(z)
}

// Stream tags namespace the derivation so e.g. root 3's negative stream
// can never collide with an expansion stream.
const (
	tagExpand    = 0x657870 // "exp"
	tagNegatives = 0x6e6567 // "neg"
)

// cursors recycles derived-stream cursors across kernels.
var cursors = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Kernel expands frontiers, draws negatives and owns the RNG of one
// worker under one Config. It is not safe for concurrent use: hold one
// per worker (a pipeline root, an AxE core) and Release it when done.
type Kernel struct {
	cfg Config
	// shared is the one sequential stream (RootStreams off); nil under
	// RootStreams.
	shared *rand.Rand
	// cursor is the pooled derived-stream cursor (RootStreams on); nil
	// otherwise.
	cursor *rand.Rand
}

// NewKernel builds a kernel for cfg. Under RootStreams it checks a
// derived-stream cursor out of a pool and ignores seed; otherwise its
// draws come from one stream seeded with seed.
func NewKernel(cfg Config, seed int64) Kernel {
	var shared *rand.Rand
	if !cfg.RootStreams {
		shared = rand.New(rand.NewSource(seed))
	}
	return newKernel(cfg, shared)
}

// newKernel builds a kernel drawing from shared, or from a pooled cursor
// under RootStreams.
func newKernel(cfg Config, shared *rand.Rand) Kernel {
	if cfg.RootStreams {
		return Kernel{cfg: cfg, cursor: cursors.Get().(*rand.Rand)}
	}
	return Kernel{cfg: cfg, shared: shared}
}

// Release returns the kernel's cursor to the pool. The kernel must not be
// used afterwards.
func (k *Kernel) Release() {
	if k.cursor != nil {
		cursors.Put(k.cursor)
		k.cursor = nil
	}
}

// derived repositions the cursor onto the stream at tags.
func (k *Kernel) derived(tags ...uint64) *rand.Rand {
	k.cursor.Seed(streamSeed(k.cfg.Seed, tags...))
	return k.cursor
}

// Expand samples hop h for a run of frontier nodes from their fetched
// neighbor lists (lists[i] belongs to frontier[i]) and appends exactly
// Fanouts[h] children per node to dst, padding with the parent when a
// node has fewer neighbors (the framework self-loop fallback). first is
// frontier[0]'s index in the whole hop-h level, where root r's nodes
// occupy [r*w, (r+1)*w) for the per-root width w entering hop h; it
// selects each node's derived stream under RootStreams. It returns the
// grown dst and the Tech-2 cycle count of the draws.
func (k *Kernel) Expand(dst []graph.NodeID, h, first int, frontier []graph.NodeID, lists [][]graph.NodeID) ([]graph.NodeID, int) {
	fanout := k.cfg.Fanouts[h]
	w := 1
	for _, f := range k.cfg.Fanouts[:h] {
		w *= f
	}
	cycles := 0
	for i, v := range frontier {
		rng := k.shared
		if k.cursor != nil {
			at := first + i
			rng = k.derived(tagExpand, uint64(at/w), uint64(h), uint64(at%w))
		}
		before := len(dst)
		var c int
		dst, c = expandNeighbors(dst, v, lists[i], fanout, k.cfg.Method, k.cfg.WeightFn, rng)
		cycles += c
		for len(dst)-before < fanout {
			dst = append(dst, v)
		}
	}
	return dst, cycles
}

// Negatives appends NegativeRate uniform negatives from [0, n) for each
// of count roots, starting at root index first.
func (k *Kernel) Negatives(dst []graph.NodeID, first, count int, n int64) []graph.NodeID {
	for r := first; r < first+count; r++ {
		rng := k.shared
		if k.cursor != nil {
			rng = k.derived(tagNegatives, uint64(r))
		}
		for i := 0; i < k.cfg.NegativeRate; i++ {
			dst = append(dst, graph.NodeID(rng.Int63n(n)))
		}
	}
	return dst
}

// Layout is a batch's canonical Result layout: Hops[h] holds Width[h+1]
// entries per root, and Attrs concatenates roots, every hop, then
// negatives.
type Layout struct {
	// Width[h] is each root's frontier width entering hop h, so
	// Width[h+1] is each root's share of Hops[h].
	Width []int
	// HopBase[h] is the attribute slot of Hops[h][0].
	HopBase []int
	// NegBase is the attribute slot of Negatives[0].
	NegBase int
	// Slots is the number of attribute vectors.
	Slots int
}

// NewLayout returns the layout of a batch of roots under cfg.
func NewLayout(cfg Config, roots int) Layout {
	l := Layout{Width: make([]int, 1, len(cfg.Fanouts)+1), HopBase: make([]int, 0, len(cfg.Fanouts))}
	l.Width[0] = 1
	l.Slots = roots
	for h, f := range cfg.Fanouts {
		l.HopBase = append(l.HopBase, l.Slots)
		l.Width = append(l.Width, l.Width[h]*f)
		l.Slots += roots * l.Width[h+1]
	}
	l.NegBase = l.Slots
	l.Slots += roots * cfg.NegativeRate
	return l
}
