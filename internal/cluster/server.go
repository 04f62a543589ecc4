package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/trace"
)

// Backend is the graph view a shard server answers from. *graph.Graph is
// the in-memory backend; *store.DiskStore satisfies the same shape, so a
// server can serve a partition straight off a persistent segment+WAL
// store without the cluster layer knowing. Implementations must be safe
// for concurrent readers.
type Backend interface {
	NumNodes() int64
	AttrLen() int
	// AttrBytes returns the wire size of one attribute vector.
	AttrBytes() int
	// Neighbors returns v's adjacency. The server holds the returned slice
	// until the request is answered and hands it to every repeat of v in
	// that request, so it must stay valid and unmodified until then: a
	// fresh slice per call (*store.DiskStore) or a view of immutable
	// storage (*graph.Graph) both qualify; a reused per-goroutine buffer
	// does not.
	Neighbors(v graph.NodeID) []graph.NodeID
	// Attr appends v's attribute vector to dst.
	Attr(dst []float32, v graph.NodeID) []float32
}

// Server owns one graph partition and answers batched requests. A Server is
// safe for concurrent use: the backend serves concurrent readers and stats
// use internal locking. Request handlers take a context so large batches
// abort promptly when the caller cancels or its deadline expires.
type Server struct {
	g         Backend
	part      Partitioner
	partition int
	stats     *trace.AccessStats
	// lat records per-request Handle latency ("cluster.server") — the
	// server-side half of the per-hop breakdown, also reported to traced
	// clients in the reply envelope.
	lat *stats.Latency
	// wire counts request/response bytes crossing Handle plus the packed
	// share and BDI compression ratio ("cluster.wire").
	wire *WireStats
	// log, when set, emits trace-annotated request logs.
	log atomic.Pointer[slog.Logger]
	// tracer, when set, records a HopServer span per handled request so
	// /trace/{id} on the server's admin plane can show its side of a trace.
	tracer atomic.Pointer[obs.Tracer]
}

// SetTracer attaches a tracer recording server-side Handle spans (nil
// detaches). Safe to call while serving.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// ctxCheckStride is how many request items a handler processes between
// context checks — frequent enough to bound overrun, cheap enough to
// disappear in the per-item cost.
const ctxCheckStride = 256

// NewServer creates a server for the given partition. All servers share the
// full immutable graph object in-process but only answer for nodes they
// own, mirroring a real deployment where each holds its shard; requests for
// foreign nodes are rejected, which catches routing bugs in the client.
func NewServer(g *graph.Graph, part Partitioner, partition int) *Server {
	return NewBackendServer(g, part, partition)
}

// NewBackendServer creates a server answering from an arbitrary Backend —
// the constructor persistent-store deployments use (lsdgnn-server
// -store-path hands a *store.DiskStore here).
func NewBackendServer(b Backend, part Partitioner, partition int) *Server {
	if partition < 0 || partition >= part.Servers() {
		panic(fmt.Sprintf("cluster: partition %d out of %d", partition, part.Servers()))
	}
	return &Server{
		g: b, part: part, partition: partition,
		stats: &trace.AccessStats{},
		lat:   stats.NewLatency("cluster.server"),
		wire:  &WireStats{},
	}
}

// Partition returns this server's partition index.
func (s *Server) Partition() int { return s.partition }

// Stats exposes the server-side access statistics.
func (s *Server) Stats() *trace.AccessStats { return s.stats }

// Latency exposes the per-request Handle latency recorder
// ("cluster.server" layer).
func (s *Server) Latency() *stats.Latency { return s.lat }

// Wire exposes the wire-traffic statistics ("cluster.wire" layer).
func (s *Server) Wire() *WireStats { return s.wire }

// SetLogger installs a structured logger for request logging: each handled
// request at Debug (with trace ID, op, duration), rejections at Warn. Nil
// disables logging. Safe to call concurrently with serving.
func (s *Server) SetLogger(l *slog.Logger) { s.log.Store(l) }

// Meta answers an OpMeta request.
func (s *Server) Meta() MetaResponse {
	return MetaResponse{
		NumNodes:   s.g.NumNodes(),
		AttrLen:    s.g.AttrLen(),
		Partition:  s.partition,
		Partitions: s.part.Servers(),
		Version:    ProtoVersion,
	}
}

// checkID rejects node IDs outside the graph's ID space or not owned by
// this partition. Malformed or hostile frames can carry arbitrary 64-bit
// IDs; they must come back as errors, never index panics.
func (s *Server) checkID(v graph.NodeID) error {
	// Compare in uint64 space: IDs at or above 2^63 would turn negative as
	// int64 and slip past a signed bounds check.
	if uint64(v) >= uint64(s.g.NumNodes()) {
		return fmt.Errorf("cluster: node %d outside graph of %d nodes", v, s.g.NumNodes())
	}
	if o := s.part.Owner(v); o != s.partition {
		return fmt.Errorf("cluster: node %d routed to server %d but owned by %d", v, s.partition, o)
	}
	return nil
}

// checkIDs validates ids in request order, so the first bad ID names the
// error exactly as a one-at-a-time handler would.
func (s *Server) checkIDs(ctx context.Context, ids []graph.NodeID) error {
	for i, v := range ids {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.checkID(v); err != nil {
			return err
		}
	}
	return nil
}

// storageOrder returns the positions of ids sorted by ascending ID, so
// repeats sit next to each other. Every backend lays its rows out in ID
// order, so walking a request this way moves forward through storage: a
// budgeted DiskStore faults each page at most once per request instead of
// once per vertex. The slice comes from mem.U32s; the caller puts it back.
func storageOrder(ids []graph.NodeID) []uint32 {
	order := mem.U32s.Get(len(ids))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
	return order
}

// GetNeighbors answers a batched neighbor request, reading each distinct
// ID once in storage order; repeated IDs share the first one's list.
func (s *Server) GetNeighbors(ctx context.Context, req NeighborsRequest) (NeighborsResponse, error) {
	if err := s.checkIDs(ctx, req.IDs); err != nil {
		return NeighborsResponse{}, err
	}
	order := storageOrder(req.IDs)
	defer mem.U32s.Put(order)
	resp := NeighborsResponse{Lists: make([][]graph.NodeID, len(req.IDs))}
	bytes := 0
	for k, i := range order {
		if k%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return NeighborsResponse{}, err
			}
		}
		if prev := k - 1; prev >= 0 && req.IDs[order[prev]] == req.IDs[i] {
			resp.Lists[i] = resp.Lists[order[prev]]
		} else {
			nbrs := s.g.Neighbors(req.IDs[i])
			if req.MaxPerNode > 0 && len(nbrs) > int(req.MaxPerNode) {
				nbrs = nbrs[:req.MaxPerNode]
			}
			resp.Lists[i] = nbrs
		}
		// Fine-grained structure access: offset lookup + ID list.
		bytes += 16 + len(resp.Lists[i])*8
	}
	s.stats.RecordN(trace.AccessStructure, len(req.IDs), bytes, false)
	return resp, nil
}

// GetAttrs answers a batched attribute request, reading each distinct ID
// once in storage order straight into its row of the reply; repeated IDs
// copy the first one's row.
func (s *Server) GetAttrs(ctx context.Context, req AttrsRequest) (AttrsResponse, error) {
	if err := s.checkIDs(ctx, req.IDs); err != nil {
		return AttrsResponse{}, err
	}
	order := storageOrder(req.IDs)
	defer mem.U32s.Put(order)
	al := s.g.AttrLen()
	resp := AttrsResponse{AttrLen: al, Attrs: make([]float32, len(req.IDs)*al)}
	row := func(i uint32) []float32 { return resp.Attrs[int(i)*al : int(i+1)*al : int(i+1)*al] }
	for k, i := range order {
		if k%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return AttrsResponse{}, err
			}
		}
		if prev := k - 1; prev >= 0 && req.IDs[order[prev]] == req.IDs[i] {
			copy(row(i), row(order[prev]))
			continue
		}
		got := s.g.Attr(row(i)[:0], req.IDs[i])
		if len(got) != al {
			return AttrsResponse{}, fmt.Errorf("cluster: backend returned %d attr floats for node %d, want %d", len(got), req.IDs[i], al)
		}
		copy(row(i), got) // a no-op when the backend appended in place
	}
	s.stats.RecordN(trace.AccessAttribute, len(req.IDs), len(req.IDs)*s.g.AttrBytes(), false)
	return resp, nil
}

// Handle dispatches a raw protocol message and returns the raw response,
// the path the transports use. A malformed frame from a remote peer must
// never take the server down: decoding failures are returned as errors and
// any residual panic in a handler is converted to an error at this
// boundary. Rejections come back typed as *ServerError — the verdict of a
// live server on a bad request, deterministic per request — so the client
// resilience layer neither retries them nor counts them against circuit
// breakers. Context errors pass through untyped: they belong to the
// caller, not the request.
//
// An OpTraced envelope is unwrapped here: its trace ID joins the request
// context (and the request log), the inner message is dispatched normally,
// and the reply is enveloped with the measured handling time so the client
// can split wire from server latency per hop.
func (s *Server) Handle(ctx context.Context, msg []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("cluster: request failed: %v", r)
		}
		if err != nil && ctx.Err() == nil {
			var se *ServerError
			if !errors.As(err, &se) {
				err = &ServerError{Server: s.partition, Msg: err.Error()}
			}
		}
	}()
	if len(msg) == 0 {
		return nil, fmt.Errorf("cluster: empty message")
	}
	defer func(in int) { s.wire.recordFrame(in, len(resp)) }(len(msg))
	var id obs.TraceID
	traced := msg[0] == OpTraced
	if traced {
		id, msg, err = DecodeTracedRequest(msg)
		if err != nil {
			return nil, err
		}
		ctx = obs.WithTrace(ctx, id)
	}
	start := time.Now()
	resp, err = s.dispatch(ctx, msg)
	dur := time.Since(start)
	if err == nil {
		s.lat.ObserveTrace(dur, uint64(id))
	} else if ctx.Err() == nil {
		s.lat.ObserveError()
	}
	if tr := s.tracer.Load(); tr != nil {
		tr.ObserveErr(id, obs.HopServer, "", start, dur, err != nil)
	}
	s.logRequest(id, msg[0], dur, err)
	if err != nil || !traced {
		return resp, err
	}
	return EncodeTracedReply(dur, resp), nil
}

// dispatch routes one unwrapped protocol message to its handler.
func (s *Server) dispatch(ctx context.Context, msg []byte) ([]byte, error) {
	switch msg[0] {
	case OpGetNeighbors:
		req, err := DecodeNeighborsRequest(msg)
		if err != nil {
			return nil, err
		}
		r, err := s.GetNeighbors(ctx, req)
		if err != nil {
			return nil, err
		}
		return EncodeNeighborsResponse(r), nil
	case OpGetAttrs:
		req, err := DecodeAttrsRequest(msg)
		if err != nil {
			return nil, err
		}
		r, err := s.GetAttrs(ctx, req)
		if err != nil {
			return nil, err
		}
		return EncodeAttrsResponse(r), nil
	case OpPacked:
		return s.handlePacked(ctx, msg)
	case OpMeta:
		// A client advertising protocol ≥1 gets the versioned response;
		// legacy clients get the 21-byte form they expect.
		if MetaRequestVersion(msg) >= 1 {
			return EncodeMetaResponseV1(s.Meta()), nil
		}
		return EncodeMetaResponse(s.Meta()), nil
	default:
		return nil, fmt.Errorf("cluster: unknown op %#x", msg[0])
	}
}

// handlePacked serves a protocol-v2 OpPacked frame: every sub-request is
// dispatched against this partition and answered in place, so one shard
// rejecting a node ID fails only its own sub-slot while its siblings still
// return data (the client resilience layer then judges each sub on its own
// status). Only a context error aborts the whole frame — that belongs to
// the caller, not the requests.
func (s *Server) handlePacked(ctx context.Context, msg []byte) ([]byte, error) {
	subs, bdi, err := DecodePackedRequest(msg, &s.wire.Codec)
	if err != nil {
		return nil, err
	}
	s.wire.recordPacked(len(subs))
	resps := make([]PackedSubResponse, len(subs))
	for i, sub := range subs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := &resps[i]
		out.Op = sub.Op
		switch sub.Op {
		case OpGetNeighbors:
			out.Neighbors, out.Err = s.GetNeighbors(ctx, sub.Neighbors)
		case OpGetAttrs:
			out.Attrs, out.Err = s.GetAttrs(ctx, sub.Attrs)
		}
		if out.Err != nil {
			if ctx.Err() != nil {
				return nil, out.Err
			}
			var se *ServerError
			if !errors.As(out.Err, &se) {
				out.Err = &ServerError{Server: s.partition, Msg: out.Err.Error()}
			}
		}
	}
	return EncodePackedResponse(resps, bdi, &s.wire.Codec), nil
}

// logRequest emits one structured request log line when a logger is set.
func (s *Server) logRequest(id obs.TraceID, op byte, dur time.Duration, err error) {
	l := s.log.Load()
	if l == nil {
		return
	}
	attrs := []any{
		slog.Int("partition", s.partition),
		slog.String("op", fmt.Sprintf("%#x", op)),
		slog.Uint64("trace", uint64(id)),
		slog.Duration("dur", dur),
	}
	if err != nil {
		l.Warn("request rejected", append(attrs, slog.String("err", err.Error()))...)
		return
	}
	l.Debug("request served", attrs...)
}
