package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/trace"
)

// Transport delivers a request message to a server and returns its reply.
// Implementations must be safe for concurrent Call and must honor ctx:
// a canceled or expired context aborts the call (including one already on
// the wire) and surfaces ctx.Err().
type Transport interface {
	Call(ctx context.Context, server int, msg []byte) ([]byte, error)
}

// DirectTransport calls in-process servers directly (zero-cost transport
// for functional tests).
type DirectTransport struct{ Servers []*Server }

// Call implements Transport.
func (t DirectTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if server < 0 || server >= len(t.Servers) {
		return nil, fmt.Errorf("cluster: no server %d", server)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Servers[server].Handle(ctx, msg)
}

// DelayedTransport injects a fixed one-way delay in front of an inner
// transport — the in-process stand-in for a slow network path. The wait
// honors ctx, so deadline and cancellation semantics can be tested without
// real sockets.
type DelayedTransport struct {
	Inner Transport
	Delay time.Duration
}

// Call implements Transport.
func (t DelayedTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if t.Delay > 0 {
		timer := time.NewTimer(t.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.Inner.Call(ctx, server, msg)
}

// TrafficSnapshot is a point-in-time copy of wire-traffic counters.
type TrafficSnapshot struct {
	Requests               int64
	RequestBytes           int64
	ResponseBytes          int64
	RemoteRequests         int64
	RemoteBytesTransferred int64
}

// TrafficStats tallies wire bytes by direction. Safe for concurrent use.
type TrafficStats struct {
	mu   sync.Mutex
	snap TrafficSnapshot
}

func (t *TrafficStats) record(reqB, respB int, remote bool) {
	t.mu.Lock()
	t.snap.Requests++
	t.snap.RequestBytes += int64(reqB)
	t.snap.ResponseBytes += int64(respB)
	if remote {
		t.snap.RemoteRequests++
		t.snap.RemoteBytesTransferred += int64(reqB + respB)
	}
	t.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (t *TrafficStats) Snapshot() TrafficSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snap
}

// StatsSnapshot implements stats.Source under the "cluster.traffic" layer.
func (t *TrafficStats) StatsSnapshot() stats.Snapshot {
	s := t.Snapshot()
	return stats.Snapshot{Layer: "cluster.traffic", Metrics: []stats.Metric{
		{Name: "requests", Value: float64(s.Requests), Unit: "req"},
		{Name: "request_bytes", Value: float64(s.RequestBytes), Unit: "bytes"},
		{Name: "response_bytes", Value: float64(s.ResponseBytes), Unit: "bytes"},
		{Name: "remote_requests", Value: float64(s.RemoteRequests), Unit: "req"},
		{Name: "remote_bytes", Value: float64(s.RemoteBytesTransferred), Unit: "bytes"},
	}}
}

// Client is a sampling worker's view of the distributed graph store. It
// groups per-hop requests by owning server and issues them concurrently,
// the batching discipline AliGraph workers use. All request methods take a
// context: cancellation and deadlines propagate through every per-server
// fan-out down to the transport.
type Client struct {
	transport Transport
	part      Partitioner
	local     int // co-located partition, -1 when fully remote
	meta      MetaResponse
	Traffic   TrafficStats
	Access    trace.AccessStats
	// Res tallies resilience events ("cluster.resilience"): retries,
	// breaker transitions, failovers, hedges, and degraded batches.
	Res ResilienceStats
	// Batches records per-batch SampleBatch latency ("cluster.batch").
	Batches *stats.Latency
	// cache is the optional worker-side hot-node cache (EnableCache).
	cache *HotCache
	// res executes calls under the WithResilience policy; nil means the
	// legacy fail-fast path.
	res *resilience
	// partial enables PartialResults degradation (set via WithResilience).
	partial bool
	// tracer, when set (WithTracer), records the per-hop latency breakdown
	// — batch, RPC, wire, server — and resilience events. Requests to
	// protocol-v1 peers carry the trace ID on the wire.
	tracer *obs.Tracer
	// slo, when set (WithSLO), classifies every SampleBatch against a
	// client-side latency objective.
	slo *stats.SLO
	// Pack tallies the protocol-v2 packing layer ("cluster.pack"): frames
	// vs logical requests, raw-vs-wire bytes, BDI ratio, coalescer hits.
	Pack PackStats
	// packCfg holds the WithPacking request; pack is built after the meta
	// handshake proves the peer speaks protocol v2, else stays nil and the
	// client sends plain per-request frames.
	packCfg  *PackingConfig
	pack     *packer
	coalesce *attrCoalescer
	// Lay tallies the elastic-layout control plane ("cluster.layout"):
	// epoch gauge, swaps, joins, drains, migrations, dual-home requests,
	// probe failures.
	Lay LayoutStats
	// layout is the live epoch-versioned routing table; readers load it
	// atomically, the control-plane methods (serialized by layoutMu) swap
	// it. Always non-nil after construction.
	layout atomic.Pointer[Layout]
	// initLayout holds the WithLayout request until construction.
	initLayout *Layout
	// layoutMu serializes layout transitions (ApplyLayout, AddReplica,
	// DrainReplica, MigratePartition); it is never taken on the data path.
	layoutMu sync.Mutex
	// loads counts cumulative requests per partition — the hot-shard
	// detector's input.
	loads []atomic.Int64
	// inflight counts per-endpoint calls on the wire so drains can wait
	// for them.
	inflight inflightTracker
	// apiKey, when set (WithAPIKey), wraps every outgoing frame in an
	// OpAuthed envelope for gateway-fronted servers.
	apiKey string
}

// ClientOption customizes a Client at construction.
type ClientOption func(*Client)

// WithResilience enables the fault-tolerance policy: bounded retries with
// backoff + jitter, per-endpoint circuit breakers, replica failover,
// optional hedging, and (when cfg.PartialResults is set) degraded batches
// instead of fail-closed fan-outs.
func WithResilience(cfg ResilienceConfig) ClientOption {
	return func(c *Client) {
		c.res = newResilience(cfg, &c.Res)
		c.partial = cfg.PartialResults
	}
}

// WithTracer attaches a hop tracer. When the server side speaks protocol
// v1 (negotiated during bootstrap), each request is sent in an OpTraced
// envelope so the server's handling time comes back in the reply and the
// tracer can split wire time from server time; against legacy peers the
// tracer still records batch and RPC hops, just without the wire/server
// split.
func WithTracer(tr *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// WithSLO classifies every SampleBatch against a latency objective:
// completed batches (degraded included — their latency is real) are good
// iff they finish within the objective's threshold; aborted batches are
// bad.
func WithSLO(s *stats.SLO) ClientOption {
	return func(c *Client) { c.slo = s }
}

// WithAPIKey wraps every outgoing frame — bootstrap meta fetch included —
// in an OpAuthed envelope carrying the key, for talking to servers fronted
// by a gateway.WireGate. The envelope rides outermost (outside the traced
// envelope and around packed frames), matching where the gate sits in the
// server's handler chain. Panics if the key exceeds the wire format's
// 255-byte bound.
func WithAPIKey(key string) ClientOption {
	if len(key) > 255 {
		panic("cluster: api key exceeds 255 bytes")
	}
	return func(c *Client) { c.apiKey = key }
}

// DefaultBootstrapTimeout bounds the NewClient meta fetch when the caller's
// context carries no deadline.
const DefaultBootstrapTimeout = 10 * time.Second

// NewClient builds a client and fetches cluster metadata from partition 0,
// bounded by DefaultBootstrapTimeout and retried through the default retry
// policy. local names the co-located partition (-1 when the worker runs on
// a machine with no graph shard).
func NewClient(t Transport, p Partitioner, local int) (*Client, error) {
	return NewClientContext(context.Background(), t, p, local)
}

// NewClientContext builds a client and fetches cluster metadata from
// partition 0. The bootstrap fetch is bounded by ctx (with
// DefaultBootstrapTimeout applied when ctx has no deadline) and retried
// through the configured resilience policy — or the default retry policy
// when none is configured — so a briefly-unready server 0 does not fail
// cluster startup.
func NewClientContext(ctx context.Context, t Transport, p Partitioner, local int, opts ...ClientOption) (*Client, error) {
	c := &Client{transport: t, part: p, local: local, Batches: stats.NewLatency("cluster.batch")}
	for _, o := range opts {
		o(c)
	}
	if c.res != nil {
		if err := c.res.cfg.Replicas.Validate(p.Servers()); err != nil {
			return nil, err
		}
		// Options apply in any order; bind the tracer after all have run.
		c.res.tracer = c.tracer
	}
	// The layout is the routing source of truth from the first request:
	// WithLayout wins, else the resilience config's ReplicaMap (every
	// endpoint serving) and finally the identity layout. The resilience
	// layer re-resolves its endpoint set from it at the top of every pass,
	// so a mid-flight epoch swap redirects retries without touching the
	// request already on the wire.
	initLay := c.initLayout
	if initLay != nil {
		if c.res == nil {
			return nil, errors.New("cluster: WithLayout requires WithResilience")
		}
	} else {
		var m ReplicaMap
		if c.res != nil {
			m = c.res.cfg.Replicas
		}
		var lerr error
		if initLay, lerr = NewLayout(p.Servers(), m); lerr != nil {
			return nil, lerr
		}
	}
	{
		norm, lerr := initLay.normalized()
		if lerr != nil {
			return nil, lerr
		}
		if lerr := norm.Validate(p.Servers()); lerr != nil {
			return nil, lerr
		}
		c.layout.Store(norm)
	}
	c.loads = make([]atomic.Int64, p.Servers())
	c.Lay.mu.Lock()
	c.Lay.epoch = func() uint64 { return c.layout.Load().Epoch }
	c.Lay.mu.Unlock()
	if c.res != nil {
		c.res.routes = c.routableEndpoints
		c.res.member = func(ep int) bool { return c.layout.Load().Contains(ep) }
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultBootstrapTimeout)
		defer cancel()
	}
	boot := c.res
	if boot == nil {
		boot = newResilience(ResilienceConfig{Retry: DefaultRetryPolicy()}, &c.Res)
	}
	// The meta request advertises this client's protocol version; legacy
	// servers ignore the trailing byte and answer in the legacy form, which
	// decodes as Version 0 below — the signal to skip trace envelopes.
	raw, err := boot.call(ctx, 0, EncodeMetaRequest(), c.invoke)
	if c.res == nil {
		// The bootstrap-only resilience installed its breaker gauge on
		// c.Res; drop it so a policy-less client does not keep reporting
		// gauges from a discarded breaker map.
		c.Res.mu.Lock()
		c.Res.breakers = nil
		c.Res.mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: meta fetch: %w", err)
	}
	c.meta, err = DecodeMetaResponse(raw)
	if err != nil {
		return nil, err
	}
	if c.meta.Partitions != p.Servers() {
		return nil, fmt.Errorf("cluster: server reports %d partitions, client configured %d", c.meta.Partitions, p.Servers())
	}
	// Packing is version-gated like tracing: only a peer that advertised
	// protocol ≥ 2 ever sees an OpPacked frame.
	if c.packCfg != nil && c.meta.Version >= 2 {
		c.pack = newPacker(c, *c.packCfg, &c.Pack)
		c.coalesce = newAttrCoalescer()
	}
	return c, nil
}

// Packing reports whether protocol-v2 request packing is active (asked for
// via WithPacking and granted by the peer's advertised version).
func (c *Client) Packing() bool { return c.pack != nil }

// EnableCache attaches a hot-node cache of the given capacity (entries),
// replacing any existing cache. Returns the cache for stats inspection.
func (c *Client) EnableCache(capacity int) *HotCache {
	c.cache = NewHotCache(capacity)
	return c.cache
}

// NumNodes returns the global node count.
func (c *Client) NumNodes() int64 { return c.meta.NumNodes }

// AttrLen returns the attribute length.
func (c *Client) AttrLen() int { return c.meta.AttrLen }

// NegotiatedVersion returns the protocol version the bootstrap peer
// advertised (0 for legacy servers).
func (c *Client) NegotiatedVersion() int { return c.meta.Version }

// call issues one request to the partition's serving endpoint(s). With a
// resilience policy it retries, fails over to replicas, and consults
// circuit breakers; without one it is a single fail-fast transport call.
// The RPC hop spans the whole policy run — backoff waits, failovers, and
// hedges included — so rpc minus wire minus server is the resilience
// overhead.
func (c *Client) call(ctx context.Context, partition int, req []byte) ([]byte, error) {
	if c.tracer != nil {
		var id obs.TraceID
		ctx, id = obs.EnsureTrace(ctx)
		start := time.Now()
		defer func() { c.tracer.Observe(id, obs.HopRPC, start, time.Since(start)) }()
	}
	// Dual-home accounting is one atomic load plus a bool index — the
	// layout indirection stays off the steady-state allocation path.
	if l := c.layout.Load(); l != nil && l.DualHome(partition) {
		c.Lay.add(&c.Lay.snap.DualHomeRequests)
	}
	if c.res != nil {
		return c.res.call(ctx, partition, req, c.invoke)
	}
	return c.invoke(ctx, partition, req)
}

// invoke performs one raw transport call against an endpoint, recording
// wire traffic on success. Against a protocol-v1 peer with tracing on, the
// request rides in an OpTraced envelope; the reply envelope carries the
// server's handling time, and the remainder of the round trip is recorded
// as the wire hop.
func (c *Client) invoke(ctx context.Context, endpoint int, req []byte) ([]byte, error) {
	traced := c.tracer != nil && c.meta.Version >= 1
	var id obs.TraceID
	if traced {
		ctx, id = obs.EnsureTrace(ctx)
		req = EncodeTracedRequest(id, req)
	}
	if c.apiKey != "" {
		// Outermost: the wire gate authenticates before anything else
		// unwraps, so the key envelope goes on last.
		req = EncodeAuthedRequest(c.apiKey, req)
	}
	start := time.Now()
	c.inflight.enter(endpoint)
	resp, err := c.transport.Call(ctx, endpoint, req)
	c.inflight.exit(endpoint)
	if err != nil {
		return nil, err
	}
	// Wire traffic counts the enveloped frames — what actually crossed.
	c.Traffic.record(len(req), len(resp), endpoint != c.local)
	if traced {
		total := time.Since(start)
		serverTime, inner, derr := DecodeTracedReply(resp)
		if derr != nil {
			return nil, derr
		}
		resp = inner
		wire := total - serverTime
		if wire < 0 {
			wire = 0
		}
		c.tracer.Observe(id, obs.HopServer, start, serverTime)
		c.tracer.Observe(id, obs.HopWire, start, wire)
	}
	return resp, nil
}

// neighborsRPC issues one per-shard neighbors request — through the
// packing window when protocol v2 is active, as a plain v1 frame
// otherwise. Either way the resilient call path runs underneath.
func (c *Client) neighborsRPC(ctx context.Context, s int, req NeighborsRequest) (NeighborsResponse, error) {
	if s >= 0 && s < len(c.loads) {
		c.loads[s].Add(1)
	}
	if c.pack != nil {
		sub, err := c.pack.do(ctx, s, PackedSubRequest{Op: OpGetNeighbors, Neighbors: req})
		if err != nil {
			return NeighborsResponse{}, err
		}
		if sub.Err != nil {
			return NeighborsResponse{}, sub.Err
		}
		return sub.Neighbors, nil
	}
	raw, err := c.call(ctx, s, EncodeNeighborsRequest(req))
	if err != nil {
		return NeighborsResponse{}, err
	}
	return DecodeNeighborsResponse(raw)
}

// attrsRPC is neighborsRPC's attribute twin.
func (c *Client) attrsRPC(ctx context.Context, s int, req AttrsRequest) (AttrsResponse, error) {
	if s >= 0 && s < len(c.loads) {
		c.loads[s].Add(1)
	}
	if c.pack != nil {
		sub, err := c.pack.do(ctx, s, PackedSubRequest{Op: OpGetAttrs, Attrs: req})
		if err != nil {
			return AttrsResponse{}, err
		}
		if sub.Err != nil {
			return AttrsResponse{}, sub.Err
		}
		return sub.Attrs, nil
	}
	raw, err := c.call(ctx, s, EncodeAttrsRequest(req))
	if err != nil {
		return AttrsResponse{}, err
	}
	return DecodeAttrsResponse(raw)
}

// GetNeighbors fetches adjacency lists for ids (any owners), preserving
// request order. Cached hot nodes are served locally; only capped requests
// (MaxPerNode > 0) bypass the cache, since truncated lists must not be
// cached or served as full ones.
func (c *Client) GetNeighbors(ctx context.Context, ids []graph.NodeID, maxPerNode uint32) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(ids))
	if c.cache != nil && maxPerNode == 0 {
		miss := ids[:0:0]
		var missPos []int
		for i, v := range ids {
			if nbrs, ok := c.cache.Neighbors(v); ok {
				out[i] = nbrs
				c.Access.Record(trace.AccessStructure, 16+len(nbrs)*8, false)
				continue
			}
			miss = append(miss, v)
			missPos = append(missPos, i)
		}
		if len(miss) == 0 {
			return out, nil
		}
		fetched, ferr := c.getNeighborsUncached(ctx, miss, 0)
		pe, partial := AsPartial(ferr)
		if ferr != nil && !partial {
			return nil, ferr
		}
		var failed map[int]bool
		if partial {
			failed = pe.Failed()
		}
		for j, l := range fetched {
			out[missPos[j]] = l
			// Never cache a lost shard's empty placeholder as a real
			// adjacency list.
			if partial && failed[c.part.Owner(miss[j])] {
				continue
			}
			c.cache.PutNeighbors(miss[j], l)
		}
		return out, ferr
	}
	fetched, err := c.getNeighborsUncached(ctx, ids, maxPerNode)
	if _, partial := AsPartial(err); err != nil && !partial {
		return nil, err
	}
	copy(out, fetched)
	return out, err
}

func (c *Client) getNeighborsUncached(ctx context.Context, ids []graph.NodeID, maxPerNode uint32) ([][]graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, positions := GroupByOwner(c.part, ids)
	out := make([][]graph.NodeID, len(ids))
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for s, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, grp []graph.NodeID, pos []int) {
			defer wg.Done()
			resp, err := c.neighborsRPC(ctx, s, NeighborsRequest{IDs: grp, MaxPerNode: maxPerNode})
			if err != nil {
				errs[s] = err
				return
			}
			if len(resp.Lists) != len(grp) {
				errs[s] = fmt.Errorf("cluster: server %d returned %d lists for %d ids", s, len(resp.Lists), len(grp))
				return
			}
			// Per list: an offset/degree lookup (16 B), then per-entry
			// pointer chasing — each neighbor ID is an individual
			// fine-grained (8 B) indirect access, the access class Figure
			// 2(c) counts.
			entries := 0
			for i, l := range resp.Lists {
				out[pos[i]] = l
				entries += len(l)
			}
			c.Access.RecordN(trace.AccessStructure, len(grp)+entries, 16*len(grp)+8*entries, s != c.local)
		}(s, grp, positions[s])
	}
	wg.Wait()
	return out, c.reduceFanout(ctx, errs)
}

// GetAttrs fetches attribute vectors for ids, concatenated in order.
// Cached hot nodes are served locally.
func (c *Client) GetAttrs(ctx context.Context, ids []graph.NodeID) ([]float32, error) {
	al := c.meta.AttrLen
	if c.cache != nil {
		out := make([]float32, len(ids)*al)
		miss := ids[:0:0]
		var missPos []int
		for i, v := range ids {
			if attrs, ok := c.cache.Attrs(v); ok {
				copy(out[i*al:], attrs)
				c.Access.Record(trace.AccessAttribute, al*4, false)
				continue
			}
			miss = append(miss, v)
			missPos = append(missPos, i)
		}
		if len(miss) == 0 {
			return out, nil
		}
		fetched, ferr := c.fetchAttrs(ctx, miss)
		pe, partial := AsPartial(ferr)
		if ferr != nil && !partial {
			return nil, ferr
		}
		var failed map[int]bool
		if partial {
			failed = pe.Failed()
		}
		for j := range miss {
			vec := fetched[j*al : (j+1)*al]
			copy(out[missPos[j]*al:], vec)
			// Never cache a lost shard's zeroed placeholder vector.
			if partial && failed[c.part.Owner(miss[j])] {
				continue
			}
			c.cache.PutAttrs(miss[j], vec)
		}
		return out, ferr
	}
	return c.fetchAttrs(ctx, ids)
}

func (c *Client) getAttrsUncached(ctx context.Context, ids []graph.NodeID) ([]float32, error) {
	out := make([]float32, len(ids)*c.meta.AttrLen)
	if err := c.attrsInto(ctx, out, ids); err != nil {
		if _, ok := AsPartial(err); ok {
			// Degraded: positions owned by lost shards stay zeroed.
			return out, err
		}
		return nil, err
	}
	return out, nil
}

// attrsInto fetches the attribute vectors of ids straight into dst,
// concatenated in order. Slots owned by a failed shard are zeroed.
func (c *Client) attrsInto(ctx context.Context, dst []float32, ids []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	groups, positions := GroupByOwner(c.part, ids)
	al := c.meta.AttrLen
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for s, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, grp []graph.NodeID, pos []int) {
			defer wg.Done()
			resp, err := c.attrsRPC(ctx, s, AttrsRequest{IDs: grp})
			if err == nil && len(resp.Attrs) != len(grp)*al {
				err = fmt.Errorf("cluster: server %d returned %d attr floats for %d ids", s, len(resp.Attrs), len(grp))
			}
			if err != nil {
				errs[s] = err
				for _, p := range pos {
					clear(dst[p*al : (p+1)*al])
				}
				return
			}
			for i := range grp {
				copy(dst[pos[i]*al:], resp.Attrs[i*al:(i+1)*al])
			}
			c.Access.RecordN(trace.AccessAttribute, len(grp), len(grp)*al*4, s != c.local)
		}(s, grp, positions[s])
	}
	wg.Wait()
	return c.reduceFanout(ctx, errs)
}

// reduceFanout reduces a fan-out's per-partition error slice. When the
// context is done, ctx.Err() wins so callers see context.Canceled /
// DeadlineExceeded rather than whichever transport error raced first.
// Otherwise, with PartialResults enabled the failures degrade into a
// *PartialError annotation; without it every failed server is reported via
// errors.Join — never just the lowest-indexed one.
func (c *Client) reduceFanout(ctx context.Context, errs []error) error {
	var shards []ShardError
	for s, err := range errs {
		if err != nil {
			shards = append(shards, ShardError{Server: s, Err: err})
		}
	}
	if len(shards) == 0 {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	if c.partial {
		c.Res.addN(&c.Res.snap.ShardErrors, len(shards))
		return &PartialError{Shards: shards}
	}
	joined := make([]error, len(shards))
	for i, s := range shards {
		joined[i] = fmt.Errorf("server %d: %w", s.Server, s.Err)
	}
	return errors.Join(joined...)
}

// NeighborsBatch implements the batch-first sampler.Store interface over
// the grouped-RPC fetch path: dst[i] receives vs[i]'s adjacency list. On
// a degraded fan-out (PartialResults) the filled lists stay
// layout-complete — lost shards contribute nil entries — and the
// *PartialError passes through; any other error leaves dst untouched.
func (c *Client) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	lists, err := c.GetNeighbors(ctx, vs, 0)
	if len(lists) == len(dst) {
		copy(dst, lists)
	}
	return err
}

// AttrsBatch implements the batch-first sampler.Store interface: dst
// receives vs's attribute vectors concatenated in order. Degraded
// fetches leave lost vertices zeroed and return the *PartialError.
// Without a hot-node cache or attribute coalescing the vectors land in
// dst directly, with no intermediate copy.
func (c *Client) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if c.cache == nil && c.coalesce == nil {
		return c.attrsInto(ctx, dst, vs)
	}
	attrs, err := c.GetAttrs(ctx, vs)
	if len(attrs) > 0 {
		copy(dst, attrs)
	}
	return err
}

// SampleBatch performs batched k-hop sampling with per-hop grouped RPCs:
// sampler.Sampler.Sample over this client, with the client's trace, SLO
// and degradation policy around it. Cancellation or an expired deadline
// on ctx aborts the batch between and within hops.
//
// With PartialResults enabled (see ResilienceConfig), shard failures
// degrade instead of aborting: the returned Result keeps its full layout —
// lost shards contribute empty adjacency lists (padded to the parent node,
// the framework self-loop fallback) and zeroed attribute vectors — and the
// error is a *PartialError annotating every lost shard. Check AsPartial
// before discarding the result.
func (c *Client) SampleBatch(ctx context.Context, roots []graph.NodeID, cfg sampler.Config) (*sampler.Result, error) {
	var id obs.TraceID
	if c.tracer != nil {
		// Mint the batch's trace here so every fan-out RPC under it shares
		// one ID end to end.
		ctx, id = obs.EnsureTrace(ctx)
	}
	start := time.Now()
	st := &degradingStore{Client: c}
	res, err := sampler.New(st, cfg).Sample(ctx, roots)
	if err == nil && len(st.lost) > 0 {
		c.Res.add(&c.Res.snap.DegradedBatches)
		err = &PartialError{Shards: dedupShards(st.lost)}
	}
	if c.tracer != nil {
		c.tracer.ObserveErr(id, obs.HopBatch, "", start, time.Since(start), err != nil)
	}
	_, partial := AsPartial(err)
	completed := err == nil || partial
	if c.Batches != nil {
		if completed {
			// Degraded batches completed; their latency is still real.
			c.Batches.ObserveTrace(time.Since(start), uint64(id))
		} else {
			c.Batches.ObserveError()
		}
	}
	c.slo.ObserveLatency(time.Since(start), !completed)
	return res, err
}

// degradingStore is the Client as the store of one SampleBatch run. It
// absorbs each *PartialError, recording the lost shards, so the run goes
// on with lost vertices padded and zero-filled; any other error passes
// through and aborts the run.
type degradingStore struct {
	*Client
	lost []ShardError
}

// NeighborsBatch implements sampler.Store.
func (d *degradingStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	return d.absorb(d.Client.NeighborsBatch(ctx, dst, vs))
}

// AttrsBatch implements sampler.Store.
func (d *degradingStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	return d.absorb(d.Client.AttrsBatch(ctx, dst, vs))
}

func (d *degradingStore) absorb(err error) error {
	if pe, ok := AsPartial(err); ok {
		d.lost = append(d.lost, pe.Shards...)
		return nil
	}
	return err
}

// dedupShards merges repeated failures of the same partition across hops,
// keeping the first error seen.
func dedupShards(shards []ShardError) []ShardError {
	seen := make(map[int]bool, len(shards))
	out := shards[:0]
	for _, s := range shards {
		if seen[s.Server] {
			continue
		}
		seen[s.Server] = true
		out = append(out, s)
	}
	return out
}
