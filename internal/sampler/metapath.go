package sampler

import (
	"fmt"

	"lsdgnn/internal/graph"
)

// Meta-path sampling over heterogeneous graphs: each hop follows a named
// relation (user→item→user), the workflow AliGraph exposes for
// heterogeneous GNN models.

// MetaPathSampler samples k-hop neighborhoods following a relation path.
// It is the synchronous Sampler with one relation view per hop, so
// WeightFn, RootStreams and the pooled Result layout behave exactly as
// they do over a single store.
type MetaPathSampler struct {
	path []string
	s    *Sampler
}

// NewMetaPath builds a sampler following path; cfg.Fanouts must align with
// the path (one fanout per relation hop).
func NewMetaPath(h *graph.Hetero, path []string, cfg Config) (*MetaPathSampler, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("sampler: empty meta-path")
	}
	if len(cfg.Fanouts) != len(path) {
		return nil, fmt.Errorf("sampler: %d fanouts for %d-hop meta-path", len(cfg.Fanouts), len(path))
	}
	views := make([]Store, len(path))
	for i, rel := range path {
		view, err := h.RelationView(rel)
		if err != nil {
			return nil, err
		}
		views[i] = view
	}
	// Every view shares the node space and the attribute table, so the
	// first one answers NumNodes and attribute fetches.
	s := New(views[0], cfg)
	s.views = views
	return &MetaPathSampler{path: path, s: s}, nil
}

// Path returns the relation sequence.
func (s *MetaPathSampler) Path() []string { return append([]string(nil), s.path...) }

// SampleBatch expands roots along the meta-path, producing the standard
// Result layout. Each hop fetches the whole frontier through that
// relation's batch store before drawing. Call Result.Release when done.
func (s *MetaPathSampler) SampleBatch(roots []graph.NodeID) *Result {
	return s.s.SampleBatch(roots)
}
