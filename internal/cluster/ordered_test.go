package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
	"lsdgnn/internal/trace"
	"lsdgnn/internal/workload"
)

// refNeighbors is the one-ID-at-a-time handler the storage-ordered
// GetNeighbors must match: validate and read each ID in request order,
// recording one access per ID.
func refNeighbors(s *Server, acc *trace.AccessStats, req NeighborsRequest) (NeighborsResponse, error) {
	resp := NeighborsResponse{Lists: make([][]graph.NodeID, len(req.IDs))}
	for i, v := range req.IDs {
		if err := s.checkID(v); err != nil {
			return NeighborsResponse{}, err
		}
		nbrs := s.g.Neighbors(v)
		if req.MaxPerNode > 0 && len(nbrs) > int(req.MaxPerNode) {
			nbrs = nbrs[:req.MaxPerNode]
		}
		acc.Record(trace.AccessStructure, 16+len(nbrs)*8, false)
		resp.Lists[i] = nbrs
	}
	return resp, nil
}

// refAttrs is the one-ID-at-a-time reference for GetAttrs.
func refAttrs(s *Server, acc *trace.AccessStats, req AttrsRequest) (AttrsResponse, error) {
	resp := AttrsResponse{AttrLen: s.g.AttrLen()}
	for _, v := range req.IDs {
		if err := s.checkID(v); err != nil {
			return AttrsResponse{}, err
		}
		resp.Attrs = s.g.Attr(resp.Attrs, v)
		acc.Record(trace.AccessAttribute, s.g.AttrBytes(), false)
	}
	return resp, nil
}

// ownedIDs lists the IDs partition p owns.
func ownedIDs(part Partitioner, n int64, p int) []graph.NodeID {
	var out []graph.NodeID
	for v := graph.NodeID(0); int64(v) < n; v++ {
		if part.Owner(v) == p {
			out = append(out, v)
		}
	}
	return out
}

// randomRequest draws count owned IDs with repeats, in random order.
func randomRequest(rng *rand.Rand, owned []graph.NodeID, count int) []graph.NodeID {
	// A small pool forces repeats; the full set spreads reads over storage.
	pool := owned
	if rng.Intn(2) == 0 {
		pool = owned[:1+rng.Intn(8)]
	}
	ids := make([]graph.NodeID, count)
	for i := range ids {
		ids[i] = pool[rng.Intn(len(pool))]
	}
	return ids
}

func sameAccess(t *testing.T, label string, got, want *trace.AccessStats) {
	t.Helper()
	for _, c := range []trace.AccessClass{trace.AccessStructure, trace.AccessAttribute} {
		if got.Requests(c) != want.Requests(c) || got.Bytes(c) != want.Bytes(c) {
			t.Fatalf("%s: %v access %d req / %d B, per-ID reference %d req / %d B",
				label, c, got.Requests(c), got.Bytes(c), want.Requests(c), want.Bytes(c))
		}
	}
	if got.RemoteShare() != want.RemoteShare() {
		t.Fatalf("%s: remote share %v, per-ID reference %v", label, got.RemoteShare(), want.RemoteShare())
	}
}

// parityBackends returns the in-memory graph and a budgeted DiskStore over
// the same graph whose memtable carries extra edges and attr overrides.
func parityBackends(t *testing.T) map[string]Backend {
	t.Helper()
	g := graph.Generate(graph.GenConfig{NumNodes: 1500, AvgDegree: 7, AttrLen: 6, Seed: 1, PowerLaw: true, Materialize: true})
	dir := t.TempDir()
	if err := store.Create(dir, g); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir, store.WithMemoryBudget(16<<10), store.WithPageSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		src, dst := graph.NodeID(rng.Intn(1500)), graph.NodeID(rng.Intn(1500))
		if err := ds.AddEdge(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		attr := []float32{float32(i), -1, 2, -3, 4, float32(-i)}
		if err := ds.SetAttr(graph.NodeID(rng.Intn(1500)), attr); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Backend{"graph": g, "disk": ds}
}

// TestServerOrderedReadsParity pins the storage-ordered handlers to the
// one-ID-at-a-time loop they replace: byte-identical plain and packed
// replies and the same access totals, for random requests with repeats,
// unsorted IDs and MaxPerNode truncation.
func TestServerOrderedReadsParity(t *testing.T) {
	ctx := context.Background()
	part := HashPartitioner{N: 2}
	for name, b := range parityBackends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewBackendServer(b, part, 0)
			owned := ownedIDs(part, b.NumNodes(), 0)
			foreign := ownedIDs(part, b.NumNodes(), 1)
			rng := rand.New(rand.NewSource(1))
			var codec mof.VecCodec
			for iter := 0; iter < 40; iter++ {
				ids := randomRequest(rng, owned, 1+rng.Intn(600))
				max := uint32(0)
				if rng.Intn(2) == 0 {
					max = uint32(1 + rng.Intn(4))
				}
				nreq := NeighborsRequest{IDs: ids, MaxPerNode: max}
				areq := AttrsRequest{IDs: ids}
				var want trace.AccessStats
				wantN, err := refNeighbors(s, &want, nreq)
				if err != nil {
					t.Fatal(err)
				}
				wantA, err := refAttrs(s, &want, areq)
				if err != nil {
					t.Fatal(err)
				}
				s.Stats().Reset()
				got, err := s.Handle(ctx, EncodeNeighborsRequest(nreq))
				if err != nil || !bytes.Equal(got, EncodeNeighborsResponse(wantN)) {
					t.Fatalf("iter %d: neighbors reply differs from per-ID reference (err %v)", iter, err)
				}
				got, err = s.Handle(ctx, EncodeAttrsRequest(areq))
				if err != nil || !bytes.Equal(got, EncodeAttrsResponse(wantA)) {
					t.Fatalf("iter %d: attrs reply differs from per-ID reference (err %v)", iter, err)
				}
				sameAccess(t, "server", s.Stats(), &want)

				// The packed path, with a rejected sibling: the bad ID sits
				// at a random position among good ones.
				bad := append([]graph.NodeID(nil), ids...)
				bad[rng.Intn(len(bad))] = foreign[rng.Intn(len(foreign))]
				_, badErr := refAttrs(s, &trace.AccessStats{}, AttrsRequest{IDs: bad})
				subs := []PackedSubRequest{
					{Op: OpGetNeighbors, Neighbors: nreq},
					{Op: OpGetAttrs, Attrs: areq},
					{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: bad}},
				}
				wantSubs := []PackedSubResponse{
					{Op: OpGetNeighbors, Neighbors: wantN},
					{Op: OpGetAttrs, Attrs: wantA},
					{Op: OpGetAttrs, Err: &ServerError{Server: 0, Msg: badErr.Error()}},
				}
				bdi := iter%2 == 0
				frame, err := EncodePackedRequest(subs, bdi, &codec)
				if err != nil {
					t.Fatal(err)
				}
				got, err = s.Handle(ctx, frame)
				if err != nil || !bytes.Equal(got, EncodePackedResponse(wantSubs, bdi, &codec)) {
					t.Fatalf("iter %d: packed reply differs from per-ID reference (err %v)", iter, err)
				}
			}
		})
	}
}

// TestServerOrderedReadsFirstError checks the first foreign or
// out-of-range ID in request order names the error, even when a later bad
// ID sorts first.
func TestServerOrderedReadsFirstError(t *testing.T) {
	ctx := context.Background()
	part := HashPartitioner{N: 2}
	g := testGraph(t)
	s := NewServer(g, part, 0)
	owned := ownedIDs(part, g.NumNodes(), 0)
	foreign := ownedIDs(part, g.NumNodes(), 1)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		ids := randomRequest(rng, owned, 2+rng.Intn(300))
		// Two bad IDs: a foreign one and one past the graph, in either
		// order, so storage order would meet them the other way round.
		i, j := rng.Intn(len(ids)), rng.Intn(len(ids))
		for j == i {
			j = rng.Intn(len(ids))
		}
		ids[i] = graph.NodeID(g.NumNodes()) + graph.NodeID(rng.Intn(1<<20))
		ids[j] = foreign[rng.Intn(len(foreign))]
		_, want := refNeighbors(s, &trace.AccessStats{}, NeighborsRequest{IDs: ids})
		_, gotN := s.GetNeighbors(ctx, NeighborsRequest{IDs: ids, MaxPerNode: 2})
		_, gotA := s.GetAttrs(ctx, AttrsRequest{IDs: ids})
		if want == nil || gotN == nil || gotA == nil || gotN.Error() != want.Error() || gotA.Error() != want.Error() {
			t.Fatalf("iter %d: errors %v / %v, per-ID reference %v", iter, gotN, gotA, want)
		}
	}
}

// cancelBackend cancels its context on the first read and counts every
// read after that.
type cancelBackend struct {
	Backend
	cancel context.CancelFunc
	reads  atomic.Int64
}

func (b *cancelBackend) Neighbors(v graph.NodeID) []graph.NodeID {
	b.cancel()
	b.reads.Add(1)
	return b.Backend.Neighbors(v)
}

func (b *cancelBackend) Attr(dst []float32, v graph.NodeID) []float32 {
	b.cancel()
	b.reads.Add(1)
	return b.Backend.Attr(dst, v)
}

// TestServerOrderedReadsCancel checks a request cancelled mid-read stops
// within ctxCheckStride backend reads, and a request cancelled up front
// reads nothing.
func TestServerOrderedReadsCancel(t *testing.T) {
	part := HashPartitioner{N: 2}
	g := testGraph(t)
	owned := ownedIDs(part, g.NumNodes(), 0)
	if len(owned) <= 2*ctxCheckStride {
		t.Fatalf("only %d owned IDs; need more than %d", len(owned), 2*ctxCheckStride)
	}
	for _, op := range []string{"neighbors", "attrs"} {
		for _, upFront := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			b := &cancelBackend{Backend: g, cancel: cancel}
			if upFront {
				cancel()
			}
			s := NewBackendServer(b, part, 0)
			var err error
			if op == "neighbors" {
				_, err = s.GetNeighbors(ctx, NeighborsRequest{IDs: owned})
			} else {
				_, err = s.GetAttrs(ctx, AttrsRequest{IDs: owned})
			}
			limit := int64(ctxCheckStride)
			if upFront {
				limit = 0
			}
			if !errors.Is(err, context.Canceled) || b.reads.Load() > limit {
				t.Fatalf("%s (cancelled up front %v): err %v after %d reads, want Canceled within %d",
					op, upFront, err, b.reads.Load(), limit)
			}
		}
	}
}

// TestClientAccessTotals checks the client's per-group access recording
// adds up to the per-ID recording it replaced.
func TestClientAccessTotals(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t)
	part := HashPartitioner{N: 3}
	servers := make([]*Server, 3)
	for p := range servers {
		servers[p] = NewServer(g, part, p)
	}
	c, err := NewClient(DirectTransport{Servers: servers}, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ids := make([]graph.NodeID, 400)
	for i := range ids {
		ids[i] = graph.NodeID(rng.Int63n(g.NumNodes()))
	}
	var want trace.AccessStats
	lists, err := c.GetNeighbors(ctx, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAttrs(ctx, ids); err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		remote := part.Owner(v) != 1
		want.Record(trace.AccessStructure, 16, remote)
		for range lists[i] {
			want.Record(trace.AccessStructure, 8, remote)
		}
		want.Record(trace.AccessAttribute, g.AttrLen()*4, remote)
	}
	sameAccess(t, "client", &c.Access, &want)
}

// TestDiskServingFaultsPagesOncePerRequest is the tier-1 gate on
// storage-ordered serving: paper-default 512-root batches through two
// shard servers over one DiskStore whose segment is at least 4× its page
// budget. Reading each request in storage order faults each page at most
// once per request, well under 2 misses per root; reading in request
// order faulted about 40 per root.
func TestDiskServingFaultsPagesOncePerRequest(t *testing.T) {
	const budget = 3 << 19
	ss, err := workload.DatasetByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Generate(graph.GenConfig{
		NumNodes: ss.SimNodes, AvgDegree: ss.AvgDegree(), AttrLen: ss.AttrLen,
		Seed: 1, PowerLaw: ss.PowerLaw, Materialize: true,
	})
	dir := t.TempDir()
	if err := store.Create(dir, g); err != nil {
		t.Fatal(err)
	}
	st := &store.Stats{}
	ds, err := store.Open(dir, store.WithMemoryBudget(budget), store.WithStats(st))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if seg := ds.SegmentBytes(); seg < 4*budget {
		t.Fatalf("segment %d bytes is under 4x the %d-byte budget", seg, budget)
	}
	part := HashPartitioner{N: 2}
	servers := []*Server{NewBackendServer(ds, part, 0), NewBackendServer(ds, part, 1)}
	c, err := NewClient(DirectTransport{Servers: servers}, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSampling()
	cfg := sampler.Config{
		Fanouts: spec.Fanouts, NegativeRate: spec.NegativeRate,
		Method: sampler.Streaming, FetchAttrs: spec.FetchAttrs, Seed: 1,
	}
	rng := rand.New(rand.NewSource(1))
	const batches = 4
	roots := make([]graph.NodeID, spec.BatchSize)
	for b := 0; b < batches; b++ {
		for i := range roots {
			roots[i] = graph.NodeID(rng.Int63n(g.NumNodes()))
		}
		if _, err := c.SampleBatch(context.Background(), roots, cfg); err != nil {
			t.Fatal(err)
		}
		if r := ds.Resident(); r > budget {
			t.Fatalf("batch %d: resident %d bytes over the %d-byte budget", b, r, budget)
		}
	}
	perRoot := float64(st.CacheMisses()) / float64(batches*spec.BatchSize)
	t.Logf("%.2f page-cache misses per root", perRoot)
	if perRoot >= 2 {
		t.Fatalf("%.2f page-cache misses per root, want under 2: shard requests are not read in storage order", perRoot)
	}
}
