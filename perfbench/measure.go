package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail applies the benchmark's percentile rule to xs (sorted in place): it
// reports p99 when at least minBeyond samples lie above it, and otherwise
// the highest percentile that still has minBeyond samples above it. It
// returns the value, the percentile used, and whether the rule could be
// met at all (it cannot with minBeyond or fewer samples; the maximum is
// then returned).
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	if n <= minBeyond {
		return xs[n-1], 100, false
	}
	// Nearest rank: the value at index i has n-1-i samples above it.
	i := int(math.Ceil(0.99*float64(n))) - 1
	if i > n-1-minBeyond {
		i = n - 1 - minBeyond
	}
	return xs[i], 100 * float64(i+1) / float64(n), true
}

// hostSampler watches the process and the host while a phase runs: every
// rssEvery it reads this process's resident set size from
// /proc/self/statm, and every cpuEvery the host's cumulative CPU and steal
// ticks from /proc/stat, in total and per vCPU.
type hostSampler struct {
	statm, stat *os.File
	buf         []byte
	page        int64
	mu          sync.Mutex
	rss         []float64
	cpu         []cpuMark
	// arena backs the marks' vcpu slices, so sampling does not allocate.
	arena []uint64
	stop  chan struct{}
	done  chan struct{}
}

// cpuMark is one read of the host's CPU tick counters at clock() time at.
type cpuMark struct {
	at           int64
	steal, total uint64
	// vcpu holds each vCPU's cumulative steal ticks.
	vcpu []uint64
}

const (
	rssEvery = 5 * time.Millisecond
	// cpuEvery is as short as the tick counters can usefully be read, so a
	// batch of a few tens of milliseconds spans several reads.
	cpuEvery = 10 * time.Millisecond
	// msPerTick: /proc/stat counts in USER_HZ, 100 a second on Linux.
	msPerTick = 10
	// cpuMarksCap marks are preallocated: a phase of a minute.
	cpuMarksCap = 6000
)

func startHostSampler() (*hostSampler, error) {
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	stat, err := os.Open("/proc/stat")
	if err != nil {
		statm.Close()
		return nil, err
	}
	ncpu := runtime.NumCPU()
	s := &hostSampler{statm: statm, stat: stat, buf: make([]byte, 256*(ncpu+2)), page: int64(os.Getpagesize()),
		rss: make([]float64, 0, 1<<14), cpu: make([]cpuMark, 0, cpuMarksCap),
		arena: make([]uint64, 0, cpuMarksCap*ncpu),
		stop:  make(chan struct{}), done: make(chan struct{})}
	s.sampleRSS()
	s.sampleCPU()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for i := 1; ; i++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sampleRSS()
				if i%int(cpuEvery/rssEvery) == 0 {
					s.sampleCPU()
				}
			}
		}
	}()
	return s, nil
}

// sampleRSS reads the second field of statm (resident pages) without
// allocating, so the sampler does not move allocs_per_root.
func (s *hostSampler) sampleRSS() {
	n, _ := s.statm.ReadAt(s.buf, 0)
	pages := uints(s.buf[:n], 2)[1]
	s.mu.Lock()
	s.rss = append(s.rss, float64(int64(pages)*s.page))
	s.mu.Unlock()
}

// sampleCPU reads the aggregate cpu line of /proc/stat: the ticks stolen
// by the hypervisor and the total of user, nice, system, idle, iowait,
// irq, softirq and steal (guest time is already inside user); and the
// steal ticks of every cpuN line after it.
func (s *hostSampler) sampleCPU() {
	n, _ := s.stat.ReadAt(s.buf, 0)
	b := s.buf[:n]
	if !bytes.HasPrefix(b, []byte("cpu ")) {
		return
	}
	f := uints(b, 8)
	m := cpuMark{at: clock(), steal: f[7]}
	for _, v := range f[:8] {
		m.total += v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.arena)+runtime.NumCPU() > cap(s.arena) {
		s.arena = make([]uint64, 0, cap(s.arena))
	}
	start := len(s.arena)
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			break
		}
		b = b[i+1:]
		if len(b) < 4 || !bytes.HasPrefix(b, []byte("cpu")) || b[3] < '0' || b[3] > '9' {
			break
		}
		// The vCPU's number is the first integer on its line.
		s.arena = append(s.arena, uints(b, 9)[8])
	}
	m.vcpu = s.arena[start:len(s.arena):len(s.arena)]
	s.cpu = append(s.cpu, m)
}

// ResetPeak drops the resident-size readings so far, so the peak covers
// only what follows.
func (s *hostSampler) ResetPeak() {
	s.mu.Lock()
	s.rss = s.rss[:0]
	s.mu.Unlock()
	s.sampleRSS()
}

// Stop ends sampling and returns the peak resident bytes and the CPU
// series. The peak is the tail (p99 with at least ten readings above it)
// of the readings: the level the process stays under for all but the
// briefest spikes, such as one batch allocating just as a GC cycle starts.
func (s *hostSampler) Stop() (peak int64, cpu []cpuMark) {
	close(s.stop)
	<-s.done
	s.sampleRSS()
	s.sampleCPU()
	s.statm.Close()
	s.stat.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	p, _, _ := tail(s.rss)
	return int64(p), s.cpu
}

// grantedShare is the share of host CPU time the hypervisor granted (did
// not steal) between clock() times a and b, reading the counters at a and b
// by linear interpolation between marks. Intervals shorter than the tick
// resolution are widened to minGrantSpan around their middle. It returns 1
// when the series cannot tell.
func grantedShare(cpu []cpuMark, a, b int64) float64 {
	if mid := (a + b) / 2; b-a < int64(minGrantSpan) {
		a, b = mid-int64(minGrantSpan)/2, mid+int64(minGrantSpan)/2
	}
	if len(cpu) < 2 {
		return 1
	}
	s0, t0 := interpolate(cpu, a)
	s1, t1 := interpolate(cpu, b)
	if t1 <= t0 {
		return 1
	}
	return 1 - (s1-s0)/(t1-t0)
}

// minGrantSpan: the tick counters advance in 10 ms steps per CPU, so a
// share is read over at least a second.
const minGrantSpan = time.Second

// interpolate reads the cumulative steal and total ticks at time t,
// clamped to the series' ends.
func interpolate(cpu []cpuMark, t int64) (steal, total float64) {
	steal = counterAt(cpu, t, func(m cpuMark) uint64 { return m.steal })
	total = counterAt(cpu, t, func(m cpuMark) uint64 { return m.total })
	return steal, total
}

// counterAt reads the cumulative counter c at time t by linear
// interpolation between marks, clamped to the series' ends.
func counterAt(cpu []cpuMark, t int64, c func(cpuMark) uint64) float64 {
	i := sort.Search(len(cpu), func(i int) bool { return cpu[i].at >= t })
	switch {
	case i == 0:
		return float64(c(cpu[0]))
	case i == len(cpu):
		return float64(c(cpu[len(cpu)-1]))
	}
	lo, hi := cpu[i-1], cpu[i]
	f := float64(t-lo.at) / float64(hi.at-lo.at)
	return float64(c(lo)) + f*(float64(c(hi))-float64(c(lo)))
}

// stolenMs is the most time the hypervisor stole from any one vCPU
// between clock() times a and b, in milliseconds. A batch that needs a
// vCPU while it is stolen waits for it, so this is what a steal burst adds
// to the batch at least; stalls of the other vCPUs in the same span mostly
// overlap it or land on the other callers' batches.
func stolenMs(cpu []cpuMark, a, b int64) float64 {
	if len(cpu) == 0 {
		return 0
	}
	var most float64
	for v := range cpu[0].vcpu {
		c := func(m cpuMark) uint64 {
			if v < len(m.vcpu) {
				return m.vcpu[v]
			}
			return 0
		}
		most = max(most, counterAt(cpu, b, c)-counterAt(cpu, a, c))
	}
	return most * msPerTick
}

// uints parses the first n (at most 10) unsigned integers on the first
// line of b without allocating; anything between digits separates them,
// and missing ones stay 0.
func uints(b []byte, n int) [10]uint64 {
	var dst [10]uint64
	i := 0
	inNum := false
	for _, c := range b {
		if c >= '0' && c <= '9' {
			if i < n {
				dst[i] = dst[i]*10 + uint64(c-'0')
			}
			inNum = true
			continue
		}
		if inNum {
			i++
			inNum = false
		}
		if c == '\n' {
			break
		}
	}
	return dst
}

// runtimeMark is a point-in-time read of the Go runtime counters the
// benchmark reports deltas of.
type runtimeMark struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return runtimeMark{mallocs: ms.Mallocs, gcCPU: cpuSamples[0].Value.Float64(), allCPU: cpuSamples[1].Value.Float64()}
}

// gcFraction is the share of the process's CPU time spent in the garbage
// collector between two marks.
func gcFraction(a, b runtimeMark) float64 {
	if d := b.allCPU - a.allCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// Fingerprint identifies the host and the code a result was measured on.
type Fingerprint struct {
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a git work tree, else
	// "unknown"; SourceSHA256 always identifies the code by content.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint(root string) Fingerprint {
	return Fingerprint{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly, so no git process is
// needed.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// output and VCS metadata excluded), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func completed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.failed {
			n++
		}
	}
	return n
}
