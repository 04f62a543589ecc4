package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// stageFaults fails chosen requests by server, opcode and the request's
// ordinal among that server's requests of the same opcode — with retries
// off, hop h's neighbor fetch is each server's h-th neighbors request.
type stageFaults struct {
	inner Transport
	fail  func(server int, op byte, nth int) bool

	mu    sync.Mutex
	calls map[[2]int]int
}

var errStageFault = errors.New("injected stage fault")

func (t *stageFaults) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	op := msg[0]
	t.mu.Lock()
	key := [2]int{server, int(op)}
	t.calls[key]++
	nth := t.calls[key]
	t.mu.Unlock()
	if t.fail(server, op, nth) {
		return nil, errStageFault
	}
	return t.inner.Call(ctx, server, msg)
}

// TestPartialSampleBatchContract pins Client.SampleBatch's degradation
// contract. Without PartialResults a failed shard aborts the batch with a
// nil result. With it, shards lost in hop 1, hop 2 and the attribute
// fetch come back as one deduplicated *PartialError on a layout-complete
// result, DegradedBatches moves by exactly one, lost roots pad with
// themselves and lost attribute rows stay zero.
func TestPartialSampleBatchContract(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 3}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 1), NewServer(g, part, 2)}
	cfg := sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 5}
	roots := make([]graph.NodeID, 16)
	for i := range roots {
		roots[i] = graph.NodeID(i * 7)
	}
	build := func(fail func(server int, op byte, nth int) bool, partial bool) *Client {
		t.Helper()
		tr := &stageFaults{inner: DirectTransport{Servers: servers}, fail: fail, calls: map[[2]int]int{}}
		c, err := NewClientContext(bg, tr, part, -1, WithResilience(ResilienceConfig{
			Retry:          RetryPolicy{MaxAttempts: 1},
			PartialResults: partial,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("abort", func(t *testing.T) {
		c := build(func(server int, op byte, nth int) bool {
			return server == 1 && op == OpGetNeighbors && nth == 2
		}, false)
		res, err := c.SampleBatch(bg, roots, cfg)
		if err == nil || res != nil {
			t.Fatalf("failed shard without PartialResults: res=%v err=%v, want nil result and an error", res != nil, err)
		}
		if _, ok := AsPartial(err); ok {
			t.Fatalf("fail-closed batch reported a *PartialError: %v", err)
		}
		if !errors.Is(err, errStageFault) {
			t.Fatalf("abort lost its cause: %v", err)
		}
		if d := c.Res.Snapshot().DegradedBatches; d != 0 {
			t.Fatalf("aborted batch counted as degraded: %d", d)
		}
	})

	t.Run("degrade", func(t *testing.T) {
		// Shard 0 is lost in hop 1 and again in the attribute fetch,
		// shard 1 in hop 2, shard 2 in the attribute fetch.
		c := build(func(server int, op byte, nth int) bool {
			switch op {
			case OpGetNeighbors:
				return (server == 0 && nth == 1) || (server == 1 && nth == 2)
			case OpGetAttrs:
				return server == 0 || server == 2
			}
			return false
		}, true)
		before := c.Res.Snapshot().DegradedBatches
		res, err := c.SampleBatch(bg, roots, cfg)
		pe, ok := AsPartial(err)
		if !ok {
			t.Fatalf("want *PartialError, got %v", err)
		}
		if res == nil {
			t.Fatal("degraded batch dropped its result")
		}
		defer res.Release()
		var got []int
		for _, s := range pe.Shards {
			got = append(got, s.Server)
			if !errors.Is(s.Err, errStageFault) {
				t.Fatalf("shard %d lost its cause: %v", s.Server, s.Err)
			}
		}
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("lost shards %v, want [0 1 2] in order of first loss, each once", got)
		}
		if d := c.Res.Snapshot().DegradedBatches - before; d != 1 {
			t.Fatalf("DegradedBatches moved by %d, want 1", d)
		}

		// Layout-complete.
		n := len(roots)
		for h, f := range cfg.Fanouts {
			n *= f
			if len(res.Hops[h]) != n {
				t.Fatalf("hop %d: %d nodes, want %d", h, len(res.Hops[h]), n)
			}
		}
		if len(res.Negatives) != len(roots)*cfg.NegativeRate {
			t.Fatalf("%d negatives, want %d", len(res.Negatives), len(roots)*cfg.NegativeRate)
		}
		slots := len(roots) + len(res.Hops[0]) + len(res.Hops[1]) + len(res.Negatives)
		if len(res.Attrs) != slots*g.AttrLen() {
			t.Fatalf("%d attr floats, want %d", len(res.Attrs), slots*g.AttrLen())
		}

		// Roots of the shard lost in hop 1 pad with themselves.
		f0 := cfg.Fanouts[0]
		lostRoots := 0
		for i, v := range roots {
			if part.Owner(v) != 0 {
				continue
			}
			lostRoots++
			for _, c := range res.Hops[0][i*f0 : (i+1)*f0] {
				if c != v {
					t.Fatalf("root %d of the lost shard expanded to %d, want self-loop padding", v, c)
				}
			}
		}
		if lostRoots == 0 {
			t.Fatal("no root on shard 0: the hop-1 loss went unexercised")
		}

		// Attribute rows owned by the shards lost in the attr fetch are
		// zero; shard 1's are the real vectors.
		ids := append([]graph.NodeID(nil), roots...)
		ids = append(ids, res.Hops[0]...)
		ids = append(ids, res.Hops[1]...)
		ids = append(ids, res.Negatives...)
		al := g.AttrLen()
		for i, v := range ids {
			row := res.Attrs[i*al : (i+1)*al]
			want := g.Attr(nil, v)
			if part.Owner(v) != 1 {
				want = make([]float32, al)
			}
			for j := range row {
				if row[j] != want[j] {
					t.Fatalf("attr slot %d (node %d, shard %d) = %v, want %v", i, v, part.Owner(v), row, want)
				}
			}
		}
	})
}
