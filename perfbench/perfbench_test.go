package main

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	// Two overlapping fetches cover [10,50), a third [60,70), and one
	// sticks out past the parent's end and is clipped to [90,100).
	children := []interval{{10, 40}, {20, 50}, {60, 70}, {90, 130}}
	if got, want := selfTime(parent, children), int64(100-40-10-10); got != want {
		t.Fatalf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime with no children = %d, want 100", got)
	}
	if got := unionLen([]interval{{0, 10}, {5, 15}, {15, 20}, {30, 31}}); got != 21 {
		t.Fatalf("unionLen = %d, want 21", got)
	}
	// uncovered: [0,100) minus cover [10,20) and [50,200) leaves 10+30.
	if got := uncovered([]interval{{0, 60}, {40, 100}}, []interval{{50, 200}, {10, 20}}); got != 40 {
		t.Fatalf("uncovered = %d, want 40", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		ruleMet bool
	}{
		// 1000 samples: p99 is the 990th value, with exactly 10 above it.
		{1000, 990, 99, true},
		{5000, 4950, 99, true},
		// 200 samples cannot give p99 with 10 beyond; the rule falls back
		// to the 190th value (p95), the highest with 10 above it.
		{200, 190, 95, true},
		{11, 1, 100.0 / 11, true},
		{10, 10, 100, false},
	} {
		v, pct, ok := tail(seq(tc.n))
		if v != tc.value || pct != tc.pct || ok != tc.ruleMet {
			t.Errorf("n=%d: tail = (%v, %v, %v), want (%v, %v, %v)", tc.n, v, pct, ok, tc.value, tc.pct, tc.ruleMet)
		}
		xs := seq(tc.n)
		v, _, _ = tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.ruleMet && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestClosedLoopDueIsPreviousCompletion(t *testing.T) {
	const d = 30 * time.Millisecond
	samples, ran := closedLoop(context.Background(), 2, d, func(context.Context, int, int64) bool {
		time.Sleep(time.Millisecond)
		return false
	})
	if len(samples) < 4 {
		t.Fatalf("only %d batches", len(samples))
	}
	if ran < d {
		t.Fatalf("loop ran %v, shorter than %v", ran, d)
	}
	for _, s := range samples {
		if s.start < s.due || s.end < s.start {
			t.Fatalf("sample out of order: %+v", s)
		}
	}
}

func TestGrantedShare(t *testing.T) {
	sec := int64(time.Second)
	// Two CPUs: 200 ticks a second. The hypervisor steals nothing in the
	// first second and half of it in the second.
	cpu := []cpuMark{{at: 0, steal: 0, total: 0}, {at: sec, steal: 0, total: 200}, {at: 2 * sec, steal: 100, total: 400}}
	for _, tc := range []struct {
		a, b int64
		want float64
	}{
		{0, sec, 1},
		{sec, 2 * sec, 0.5},
		{0, 2 * sec, 0.75},
		// A short interval is widened to a second around its middle.
		{sec + sec/2 - 1000, sec + sec/2 + 1000, 0.5},
		// Past the series' end the counters are clamped.
		{2 * sec, 4 * sec, 1},
	} {
		if got := grantedShare(cpu, tc.a, tc.b); got != tc.want {
			t.Errorf("grantedShare(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if got := grantedShare(nil, 0, sec); got != 1 {
		t.Errorf("grantedShare with no series = %v, want 1", got)
	}
}

func TestStolenMsTakesTheWorstVCPU(t *testing.T) {
	ms := int64(time.Millisecond)
	// Two vCPUs read every 10 ms: vCPU 0 loses 2 ticks (20 ms) between 10
	// and 20 ms, vCPU 1 loses 1 tick between 20 and 30 ms.
	cpu := []cpuMark{
		{at: 0, vcpu: []uint64{5, 7}},
		{at: 10 * ms, vcpu: []uint64{5, 7}},
		{at: 20 * ms, vcpu: []uint64{7, 7}},
		{at: 30 * ms, vcpu: []uint64{7, 8}},
	}
	for _, tc := range []struct {
		a, b int64
		want float64
	}{
		{0, 10 * ms, 0},
		{0, 30 * ms, 20},
		{20 * ms, 30 * ms, 10},
		// Half of each interval: 10 ms of vCPU 0's burst, 5 of vCPU 1's.
		{15 * ms, 25 * ms, 10},
		// Past the series' end the counters are clamped.
		{30 * ms, 60 * ms, 0},
	} {
		if got := stolenMs(cpu, tc.a, tc.b); got != tc.want {
			t.Errorf("stolenMs(%v, %v) = %v, want %v", time.Duration(tc.a), time.Duration(tc.b), got, tc.want)
		}
	}
	if got := stolenMs(nil, 0, ms); got != 0 {
		t.Errorf("stolenMs with no series = %v, want 0", got)
	}
}

func TestSampleCPUReadsEveryVCPU(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stat")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("cpu  10 0 5 100 0 0 0 9 0 0\n" +
		"cpu0 5 0 2 50 0 0 0 4 0 0\n" +
		"cpu1 5 0 3 50 0 0 0 5 0 0\n" +
		"intr 12345 1 2 3\n")
	s := &hostSampler{stat: f, buf: make([]byte, 512), arena: make([]uint64, 0, 8)}
	s.sampleCPU()
	if len(s.cpu) != 1 {
		t.Fatalf("%d marks, want 1", len(s.cpu))
	}
	m := s.cpu[0]
	if m.steal != 9 || m.total != 124 || len(m.vcpu) != 2 || m.vcpu[0] != 4 || m.vcpu[1] != 5 {
		t.Fatalf("mark = %+v, want steal 9, total 124, vcpu [4 5]", m)
	}
}

// TestDecoratorsKeepResultsByteIdentical runs the same batches through a
// client and pipeline assembled plainly and assembled with every decorator
// (store, transport, handler, backend) and compares the outputs.
func TestDecoratorsKeepResultsByteIdentical(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 16, Seed: 3, PowerLaw: true})
	cfg := paperSampling(7)
	cfg.RootStreams = true
	probes := rootPool(7, streamProbes, 3, 16, g.NumNodes())

	run := func(rec *Recorder) [][]byte {
		part := cluster.HashPartitioner{N: 2}
		var addrs []string
		for p := 0; p < 2; p++ {
			var b cluster.Backend = g
			if rec != nil {
				b = &tracedBackend{inner: g}
			}
			var h cluster.Handler = cluster.NewBackendServer(b, part, p)
			if rec != nil {
				h = &tracedHandler{inner: h, name: "cluster.Server.Handle", r: rec}
			}
			ts, err := cluster.ServeTCP(h, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ts.Close() })
			addrs = append(addrs, ts.Addr())
		}
		tcp := cluster.DialTCP(addrs, 1)
		t.Cleanup(tcp.Close)
		var tr cluster.Transport = tcp
		if rec != nil {
			tr = &tracedTransport{inner: tcp, r: rec}
		}
		client, err := cluster.NewClientContext(context.Background(), tr, part, -1, cluster.WithPacking(cluster.PackingConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		var st sampler.Store = client
		if rec != nil {
			st = &tracedStore{inner: client, r: rec}
		}
		ex := pipeline.New(st, cfg, pipeline.Config{})
		var out [][]byte
		for i, roots := range probes {
			res, err := ex.Sample(withBatch(context.Background(), int64(i+1)), roots)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resultBytes(res))
			res.Release()
		}
		return out
	}
	plain := run(nil)
	rec := newRecorder()
	traced := run(rec)
	want, err := reference(sampler.LocalStore{G: g}, cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if string(plain[i]) != string(want[i]) || string(traced[i]) != string(want[i]) {
			t.Fatalf("probe %d: decorated run differs", i)
		}
	}
	seen := map[string]int{}
	for _, s := range rec.Spans() {
		seen[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	for _, name := range []string{"sampler.Store.NeighborsBatch", "sampler.Store.AttrsBatch", "cluster.Transport.Call", "cluster.Server.Handle"} {
		if seen[name] == 0 {
			t.Errorf("no %s spans recorded (got %v)", name, fmt.Sprint(seen))
		}
	}
}
