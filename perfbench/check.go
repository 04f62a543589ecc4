package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// checkLayout verifies the shape of one batch result: one hop list per
// fanout with exactly fanout entries per parent, NegativeRate negatives
// per root, one attribute vector per sampled node, and every ID inside
// the graph.
func checkLayout(res *sampler.Result, roots []graph.NodeID, cfg sampler.Config, numNodes int64, attrLen int) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if len(res.Roots) != len(roots) {
		return fmt.Errorf("%d roots, want %d", len(res.Roots), len(roots))
	}
	if len(res.Hops) != len(cfg.Fanouts) {
		return fmt.Errorf("%d hops, want %d", len(res.Hops), len(cfg.Fanouts))
	}
	width, nodes := len(roots), len(roots)
	for h, f := range cfg.Fanouts {
		width *= f
		if len(res.Hops[h]) != width {
			return fmt.Errorf("hop %d has %d nodes, want %d", h+1, len(res.Hops[h]), width)
		}
		nodes += width
		for _, v := range res.Hops[h] {
			if int64(v) >= numNodes {
				return fmt.Errorf("hop %d node %d outside the graph", h+1, v)
			}
		}
	}
	if want := len(roots) * cfg.NegativeRate; len(res.Negatives) != want {
		return fmt.Errorf("%d negatives, want %d", len(res.Negatives), want)
	}
	nodes += len(res.Negatives)
	want := 0
	if cfg.FetchAttrs {
		want = nodes * attrLen
	}
	if len(res.Attrs) != want {
		return fmt.Errorf("%d attribute floats, want %d", len(res.Attrs), want)
	}
	return nil
}

// resultBytes serializes the sampled content of a result — roots, hops,
// negatives and attribute bits — so two results can be compared byte for
// byte. Cycles is left out: it is a per-path cost model, not output.
func resultBytes(res *sampler.Result) []byte {
	var b []byte
	ids := func(xs []graph.NodeID) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
		for _, v := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	ids(res.Roots)
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

// reference samples each probe batch with a fresh sampler.Sampler over
// store: the output every path under test must reproduce byte for byte.
// A fresh sampler per batch matches paths that restart their random
// stream every batch (the cluster client, and any RootStreams path).
func reference(store sampler.Store, cfg sampler.Config, probes [][]graph.NodeID) ([][]byte, error) {
	out := make([][]byte, len(probes))
	for i, roots := range probes {
		res, err := sampler.New(store, cfg).Sample(context.Background(), roots)
		if err != nil {
			return nil, fmt.Errorf("reference probe %d: %w", i, err)
		}
		out[i] = resultBytes(res)
		res.Release()
	}
	return out, nil
}

// checkProbes runs every probe batch through sample and compares the
// output with want.
func checkProbes(what string, probes [][]graph.NodeID, want [][]byte, sample func([]graph.NodeID) (*sampler.Result, error)) error {
	for i, roots := range probes {
		res, err := sample(roots)
		if err != nil {
			return fmt.Errorf("%s: probe %d: %w", what, i, err)
		}
		got := resultBytes(res)
		res.Release()
		if string(got) != string(want[i]) {
			return fmt.Errorf("%s: probe %d differs from the reference sampler", what, i)
		}
	}
	return nil
}

// errLog counts failed batches and keeps the first failure of each kind.
// A batch that returns an error failed; a batch whose result has the
// wrong layout is also wrong output, which fails the run.
type errLog struct {
	mu       sync.Mutex
	firstErr error
	badOut   error
}

// record keeps err as the first batch error if there is none yet.
func (e *errLog) record(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

func (e *errLog) batch(res *sampler.Result, err error, roots []graph.NodeID, cfg sampler.Config, numNodes int64, attrLen int) (failed bool) {
	if err != nil {
		e.record(err)
		if res != nil {
			res.Release()
		}
		return true
	}
	if lerr := checkLayout(res, roots, cfg, numNodes, attrLen); lerr != nil {
		e.mu.Lock()
		if e.badOut == nil {
			e.badOut = fmt.Errorf("result layout: %w", lerr)
		}
		e.mu.Unlock()
		res.Release()
		return true
	}
	res.Release()
	return false
}

// err reports wrong output as an error; plain batch errors are counted
// as failures and printed, but do not by themselves make the output
// incorrect.
func (e *errLog) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first batch error: %v\n", e.firstErr)
	}
	return e.badOut
}
