package main

import (
	"bytes"
	"compress/flate"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Host-speed calibration.
//
// The reference host is a two-vCPU share of a machine whose other
// tenants come and go: a fixed loop runs up to 1.7x slower for seconds
// to minutes at a time, so raw timings of the same code differ by up to
// 30 % between runs. The benchmark therefore runs a fixed calibration round,
// code of its own that the program cannot change, next to each timed
// call (just before a GEMM launch; at the paired keys of a simd-mix
// pass), and scales the call's time by (calibRefS / round time)^calibBeta:
// a timing reads as seconds on the reference host at rest. A slow phase
// stretches the round and the call alike, so it cancels out; a change to
// the program moves only the call. One 20 ms round jitters by more than
// a launch does, so the factor uses the median of the last few rounds:
// short enough to follow a phase, long enough to smooth the jitter.
// simd-mix keeps both CPUs busy, so it runs a round on each CPU at once:
// a phase that slows one CPU more than the other shows in its factor.
//
// The round mixes a random read-modify-write over 4 MiB, a sort and map
// updates, and flate compression, so that cache, branch and integer work
// all weigh in. It allocates nothing, so the program's garbage does not
// tax it.

// calibRefS is the calibration round's median time on the reference
// host (2-vCPU Intel Xeon VM, Go 1.24) in a quiet period. Two rounds
// run at once take the same time there: the two CPUs share no core.
const calibRefS = 0.020

// calibBeta is how much more the simulator slows than the round in a
// slow phase: over 65 GEMM runs on the reference host, log(raw run_s)
// against log(round time) had slope 1.7 (tc-gemm) and 1.4 (simt-gemm),
// correlation 0.94-0.98; simd-mix's cold latencies about 1.1. The
// simulator leans on caches and the Go runtime's second CPU more than
// the round does. A slowdown that stretches everything alike, such as
// time stolen by the hypervisor, is over-corrected by (slowdown)^0.5.
const calibBeta = 1.5

// calibWindow is how many recent rounds the factor's median spans.
const calibWindow = 5

type calibrator struct {
	recent []float64 // the last calibWindow round times, oldest first
	work   []*calibWork
}

// newCalibrator returns a calibrator whose rounds run on the given
// number of goroutines at once.
func newCalibrator(threads int) *calibrator {
	c := &calibrator{}
	for i := 0; i < threads; i++ {
		c.work = append(c.work, newCalibWork())
	}
	return c
}

// calibWork is one goroutine's share of a round, with its own buffers.
type calibWork struct {
	mem  []uint32
	xs   []float64
	m    map[uint64]uint64
	text []byte
	zbuf bytes.Buffer
	zw   *flate.Writer
	sink uint64
}

func newCalibWork() *calibWork {
	c := &calibWork{mem: make([]uint32, 1<<20), xs: make([]float64, 1<<13), m: make(map[uint64]uint64, 1<<12)}
	words := []string{"warp", "issue", "scoreboard", "tensor", "fragment", "cache",
		"dram", "shared", "bank", "cycle", "kernel", "launch"}
	x := uint64(1)
	for len(c.text) < 64<<10 {
		x = x*6364136223846793005 + 1442695040888963407
		c.text = append(c.text, words[x>>60%uint64(len(words))]...)
		c.text = append(c.text, " \n,"[x>>40%3])
	}
	c.zbuf.Grow(64 << 10)
	c.zw, _ = flate.NewWriter(&c.zbuf, 6)
	c.round() // fault in the buffers before the first timed round
	return c
}

// round runs one goroutine's share of a round: the same work every call.
func (c *calibWork) round() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<20 - 1)
		if v := c.mem[j]; v&1 == 0 {
			c.mem[j] = v + uint32(x>>40)
		} else {
			c.mem[j] = v ^ uint32(x>>20)
		}
	}

	for r := 0; r < 3; r++ {
		for i := range c.xs {
			x = x*6364136223846793005 + 1442695040888963407
			c.xs[i] = float64(x >> 11)
		}
		sort.Float64s(c.xs)
		clear(c.m)
		for i, v := range c.xs[:1<<12] {
			c.m[uint64(v)%50021] += uint64(i)
		}
		for i := uint64(0); i < 1<<13; i++ {
			c.sink += c.m[i*7%50021]
		}
	}

	c.zbuf.Reset()
	c.zw.Reset(&c.zbuf)
	c.zw.Write(c.text)
	c.zw.Close()
	c.sink += uint64(c.zbuf.Len())
}

// scale times one round and returns the factor that turns host seconds
// measured now into reference-host seconds.
func (c *calibrator) scale() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range c.work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.round()
		}()
	}
	wg.Wait()
	if len(c.recent) == calibWindow {
		c.recent = append(c.recent[:0], c.recent[1:]...)
	}
	c.recent = append(c.recent, time.Since(t0).Seconds())
	return math.Pow(calibRefS/stats.Median(c.recent), calibBeta)
}
