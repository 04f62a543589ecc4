package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// Span is one timed call across a layer boundary. Times are clock()
// readings. Parent is the ID of the span that caused
// this one (0 for a batch's root span, or when the cause cannot be seen
// from outside, as for packed frames flushed by the client's packer).
// Batch is the load generator's batch number (0 when the call serves no
// single batch).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Batch  int64  `json:"batch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// maxSpans caps the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []Span
	dropped int64
}

func newRecorder() *Recorder {
	return &Recorder{spans: make([]Span, 0, 1<<14)}
}

type spanKey struct{}

// spanCtx is what a context carries down through the decorators.
type spanCtx struct{ id, batch int64 }

// withBatch starts a batch's root context.
func withBatch(ctx context.Context, batch int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{batch: batch})
}

// open is a span being timed.
type open struct {
	r    *Recorder
	span Span
}

// begin opens a span named name under the span carried by ctx and returns
// the context its children should see.
func (r *Recorder) begin(ctx context.Context, name string) (context.Context, open) {
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	id := r.ids.Add(1)
	o := open{r: r, span: Span{ID: id, Parent: parent.id, Batch: parent.batch, Name: name, Start: clock()}}
	return context.WithValue(ctx, spanKey{}, spanCtx{id: id, batch: parent.batch}), o
}

func (o open) end() Span {
	o.span.End = clock()
	o.r.add(o.span)
	return o.span
}

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (r *Recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// merge sorts ivs in place and returns the disjoint union, reusing ivs.
func merge(ivs []interval) []interval {
	if len(ivs) == 0 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// unionLen is the total time covered by ivs (overlaps counted once).
func unionLen(ivs []interval) int64 {
	var n int64
	for _, iv := range merge(append([]interval(nil), ivs...)) {
		n += iv.hi - iv.lo
	}
	return n
}

// selfTime is the part of parent that none of children covers: the
// parent's duration minus the union of its children clipped to it.
// Children may overlap each other, as the pipeline's concurrent fetches do.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < parent.lo {
			c.lo = parent.lo
		}
		if c.hi > parent.hi {
			c.hi = parent.hi
		}
		if c.hi > c.lo {
			clipped = append(clipped, c)
		}
	}
	return (parent.hi - parent.lo) - unionLen(clipped)
}

// uncovered is the length of the union of ivs that no interval of cover
// overlaps.
func uncovered(ivs, cover []interval) int64 {
	a := merge(append([]interval(nil), ivs...))
	c := merge(append([]interval(nil), cover...))
	var n int64
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(c) && c[j].hi <= lo {
			j++
		}
		for k := j; k < len(c) && c[k].lo < iv.hi; k++ {
			if c[k].lo > lo {
				n += c[k].lo - lo
			}
			if c[k].hi > lo {
				lo = c[k].hi
			}
		}
		if iv.hi > lo {
			n += iv.hi - lo
		}
	}
	return n
}

func spanInterval(s Span) interval { return interval{s.Start, s.End} }

// Decorators. Each wraps one public layer boundary of the program and
// records a span per call; the wrapped value is handed to the program in
// place of the original, so the untraced run differs only by their
// absence.

// tracedStore wraps a sampler.Store (the boundary below the sampler and the
// pipeline executor).
type tracedStore struct {
	inner sampler.Store
	r     *Recorder
	ids   atomic.Int64
}

func (t *tracedStore) NumNodes() int64 { return t.inner.NumNodes() }
func (t *tracedStore) AttrLen() int    { return t.inner.AttrLen() }

func (t *tracedStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	ctx, o := t.r.begin(ctx, "sampler.Store.NeighborsBatch")
	t.ids.Add(int64(len(vs)))
	err := t.inner.NeighborsBatch(ctx, dst, vs)
	o.end()
	return err
}

func (t *tracedStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	ctx, o := t.r.begin(ctx, "sampler.Store.AttrsBatch")
	t.ids.Add(int64(len(vs)))
	err := t.inner.AttrsBatch(ctx, dst, vs)
	o.end()
	return err
}

// tracedTransport wraps a cluster.Transport and counts frames and bytes.
type tracedTransport struct {
	inner cluster.Transport
	r     *Recorder
	bytes atomic.Int64
}

func (t *tracedTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	ctx, o := t.r.begin(ctx, "cluster.Transport.Call")
	resp, err := t.inner.Call(ctx, server, msg)
	o.end()
	t.bytes.Add(int64(len(msg) + len(resp)))
	return resp, err
}

// tracedHandler wraps a cluster.Handler (the TCP server's entry point, or
// the server behind a wire gate).
type tracedHandler struct {
	inner cluster.Handler
	name  string
	r     *Recorder
}

func (t *tracedHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	ctx, o := t.r.begin(ctx, t.name)
	resp, err := t.inner.Handle(ctx, msg)
	o.end()
	return resp, err
}

// tracedBackend wraps a cluster.Backend. A server makes one Backend call
// per vertex, far too many to keep as spans, so it keeps a call count and
// the summed call time instead.
type tracedBackend struct {
	inner cluster.Backend
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *tracedBackend) NumNodes() int64 { return t.inner.NumNodes() }
func (t *tracedBackend) AttrLen() int    { return t.inner.AttrLen() }
func (t *tracedBackend) AttrBytes() int  { return t.inner.AttrBytes() }

func (t *tracedBackend) Neighbors(v graph.NodeID) []graph.NodeID {
	start := time.Now()
	out := t.inner.Neighbors(v)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return out
}

func (t *tracedBackend) Attr(dst []float32, v graph.NodeID) []float32 {
	start := time.Now()
	out := t.inner.Attr(dst, v)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return out
}

// batchSpans groups one batch's root span with its children's intervals.
type batchSpans struct {
	top      Span
	children []interval
}

func batchOf(m map[int64]*batchSpans, batch int64) *batchSpans {
	b := m[batch]
	if b == nil {
		b = &batchSpans{}
		m[batch] = b
	}
	return b
}

func intervals(spans []Span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = spanInterval(s)
	}
	return out
}

func sumLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

func sumDur(spans []Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.dur()
	}
	return n
}

func durationsMs(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}
