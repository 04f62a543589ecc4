package sampler_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
)

// resultBytes serializes a result's sampled content (length-prefixed
// roots, hops, negatives, attribute bits) so two results compare byte
// for byte, nil and empty segments alike.
func resultBytes(res *sampler.Result) []byte {
	var b []byte
	ids := func(xs []graph.NodeID) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
		for _, v := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	ids(res.Roots)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Hops)))
	for _, h := range res.Hops {
		ids(h)
	}
	ids(res.Negatives)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Attrs)))
	for _, a := range res.Attrs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(a))
	}
	return b
}

// TestParityAcrossPaths is the one-kernel property: over the whole
// Method × WeightFn × RootStreams × NegativeRate × FetchAttrs space,
// every backend and execution path produces the reference result.
//
//   - DiskStore and the Client over a 3-partition cluster match
//     LocalStore byte for byte, Cycles included, in every cell.
//   - Under RootStreams the out-of-order pipeline (windows 1 and 256)
//     and the AxE engine match too; the engine's Cycles are excluded,
//     since it accounts sampling steps in simulated time.
//   - A one-relation meta-path equals sampler.New over that relation's
//     view.
func TestParityAcrossPaths(t *testing.T) {
	ctx := context.Background()
	g := graph.Generate(graph.GenConfig{NumNodes: 600, AvgDegree: 6, AttrLen: 4, Seed: 3, PowerLaw: true})
	local := sampler.LocalStore{G: g}

	dir := t.TempDir()
	if err := store.Create(dir, g); err != nil {
		t.Fatal(err)
	}
	disk, err := store.Open(dir, store.WithMemoryBudget(32<<10), store.WithPageSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	part := cluster.HashPartitioner{N: 3}
	servers := []*cluster.Server{
		cluster.NewServer(g, part, 0), cluster.NewServer(g, part, 1), cluster.NewServer(g, part, 2),
	}
	client, err := cluster.NewClient(cluster.DirectTransport{Servers: servers}, part, -1)
	if err != nil {
		t.Fatal(err)
	}

	h := graph.NewHetero(g.NumNodes(), g.AttrLen())
	if err := h.AddRelation("r", g); err != nil {
		t.Fatal(err)
	}
	view, err := h.RelationView("r")
	if err != nil {
		t.Fatal(err)
	}

	roots := make([]graph.NodeID, 16)
	for i := range roots {
		roots[i] = graph.NodeID(i * 37 % 600)
	}

	for _, method := range []sampler.Method{sampler.Reservoir, sampler.Streaming} {
		for _, weighted := range []bool{false, true} {
			for _, rootStreams := range []bool{false, true} {
				for _, negs := range []int{0, 2} {
					for _, attrs := range []bool{false, true} {
						name := fmt.Sprintf("%v/weighted=%v/rootStreams=%v/negs=%d/attrs=%v", method, weighted, rootStreams, negs, attrs)
						t.Run(name, func(t *testing.T) {
							cfg := sampler.Config{
								Fanouts: []int{5, 3}, NegativeRate: negs, Method: method,
								FetchAttrs: attrs, Seed: 11, RootStreams: rootStreams,
							}
							// withWeights gives a path's config DegreeWeight over
							// that path's own store, so every backend answers its
							// own degree lookups.
							withWeights := func(st sampler.Store) sampler.Config {
								c := cfg
								if weighted {
									c.WeightFn = sampler.DegreeWeight(st)
								}
								return c
							}

							ref, err := sampler.New(local, withWeights(local)).Sample(ctx, roots)
							if err != nil {
								t.Fatal(err)
							}
							defer ref.Release()
							want := resultBytes(ref)
							check := func(path string, got *sampler.Result, cycles bool) {
								t.Helper()
								defer got.Release()
								if !bytes.Equal(resultBytes(got), want) {
									t.Errorf("%s: sampled content differs from LocalStore", path)
								}
								if cycles && got.Cycles != ref.Cycles {
									t.Errorf("%s: cycles %d, LocalStore %d", path, got.Cycles, ref.Cycles)
								}
							}

							got, err := sampler.New(disk, withWeights(disk)).Sample(ctx, roots)
							if err != nil {
								t.Fatal(err)
							}
							check("DiskStore", got, true)

							got, err = client.SampleBatch(ctx, roots, withWeights(client))
							if err != nil {
								t.Fatal(err)
							}
							check("Client", got, true)

							mp, err := sampler.NewMetaPath(h, []string{"r", "r"}, withWeights(view))
							if err != nil {
								t.Fatal(err)
							}
							viewRes, err := sampler.New(view, withWeights(view)).Sample(ctx, roots)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(resultBytes(viewRes), want) {
								t.Errorf("relation view: sampled content differs from LocalStore")
							}
							metaRes := mp.SampleBatch(roots)
							if !bytes.Equal(resultBytes(metaRes), resultBytes(viewRes)) || metaRes.Cycles != viewRes.Cycles {
								t.Errorf("MetaPathSampler: differs from sampler.New over the relation view")
							}
							metaRes.Release()
							viewRes.Release()

							if !rootStreams {
								return
							}
							for _, window := range []int{1, 256} {
								got, err := pipeline.New(local, withWeights(local), pipeline.Config{Window: window}).Sample(ctx, roots)
								if err != nil {
									t.Fatal(err)
								}
								check(fmt.Sprintf("pipeline window=%d", window), got, true)
							}
							ecfg := axe.DefaultConfig()
							ecfg.Sampling = withWeights(local)
							e, err := axe.New(g, part, 0, ecfg)
							if err != nil {
								t.Fatal(err)
							}
							hw, _ := e.RunBatch(roots)
							check("axe engine", hw, false)
						})
					}
				}
			}
		}
	}
}
