package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cuda"
	"repro/internal/cutlass"
	"repro/internal/fp16"
	"repro/internal/gpu"
	"repro/internal/hwproxy"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The GEMM workloads: a fixed launch set simulated on an 8-SM Titan V
// slice, one launch at a time, each on a fresh simulator so the modelled
// caches start empty. The launch set is simulated in passes until the
// run's time is used up; every metric is a median or a sum over passes.

const (
	sliceSMs = 8
	// warmSize is the problem size whose launches are also re-run on
	// the simulator that just ran them (modelled L1/L2 warm): the
	// GEMM workloads' "cached" latency.
	warmSize = 128
	// maxInput bounds |element| of FillRandomFP16 inputs.
	maxInput = 4.0
)

// gemmCase is one launch of a workload's launch set.
type gemmCase struct {
	name    string
	n       int // M = N = K
	prec    kernels.GemmPrecision
	cutlass bool
	build   func() (*kernels.Launch, error)
	proxy   hwproxy.GemmSpec
}

// tcCases is the tc-gemm launch set: the four default CUTLASS tile
// policies at both accumulator precisions plus the shared-memory WMMA
// GEMM, at 128³ and 256³.
func tcCases() []gemmCase {
	var cs []gemmCase
	for _, n := range []int{128, 256} {
		for _, pol := range cutlass.DefaultPolicies() {
			for _, prec := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
				cfg := cutlass.GemmConfig{Policy: pol, Precision: prec, M: n, N: n, K: n}
				cs = append(cs, gemmCase{
					name: cfg.String(), n: n, prec: prec, cutlass: true,
					build: func() (*kernels.Launch, error) { return cutlass.Build(cfg) },
					proxy: hwproxy.GemmSpec{M: n, N: n, K: n, Kind: hwproxy.TensorCore,
						BlockM: pol.BlockM, BlockN: pol.BlockN, CBytes: cdBytes(prec)},
				})
			}
		}
		cs = append(cs, gemmCase{
			name: fmt.Sprintf("wmma_shared_%v_%d", kernels.TensorMixed, n), n: n, prec: kernels.TensorMixed,
			build: func() (*kernels.Launch, error) { return kernels.WMMAGemmShared(kernels.TensorMixed, n, n, n) },
			proxy: hwproxy.GemmSpec{M: n, N: n, K: n, Kind: hwproxy.TensorCore, BlockM: 32, BlockN: 32, CBytes: 4},
		})
	}
	return cs
}

// simtCases is the simt-gemm launch set: the FP32 and packed-half SIMT
// GEMMs at 128³ and 256³. No launch issues a wmma instruction.
func simtCases() []gemmCase {
	var cs []gemmCase
	for _, n := range []int{128, 256} {
		cs = append(cs,
			gemmCase{
				name: fmt.Sprintf("sgemm_simt_%d", n), n: n, prec: kernels.SimtFP32,
				build: func() (*kernels.Launch, error) { return kernels.SGEMMSimt(n, n, n) },
				proxy: hwproxy.GemmSpec{M: n, N: n, K: n, Kind: hwproxy.SimtFP32, BlockM: 64, BlockN: 64, CBytes: 4},
			},
			gemmCase{
				name: fmt.Sprintf("hgemm_simt_%d", n), n: n, prec: kernels.SimtFP16,
				build: func() (*kernels.Launch, error) { return kernels.HGEMMSimt(n, n, n) },
				proxy: hwproxy.GemmSpec{M: n, N: n, K: n, Kind: hwproxy.SimtFP16, BlockM: 64, BlockN: 128, CBytes: 2},
			})
	}
	return cs
}

// elemsOf returns the A/B and C/D element precisions of a GEMM flavour.
func elemsOf(p kernels.GemmPrecision) (ab, cd wmma.Precision) {
	switch p {
	case kernels.TensorMixed:
		return wmma.F16, wmma.F32
	case kernels.SimtFP32:
		return wmma.F32, wmma.F32
	default:
		return wmma.F16, wmma.F16
	}
}

func cdBytes(p kernels.GemmPrecision) int {
	_, cd := elemsOf(p)
	return cuda.ElemBytes(cd)
}

// mmaConfig is the 16×16×16 Volta wmma configuration with the GEMM
// flavour's accumulator precision.
func mmaConfig(p kernels.GemmPrecision) wmma.Config {
	_, cd := elemsOf(p)
	return wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.RowMajor,
		AType: wmma.F16, CType: cd, DType: cd}
}

// tolerance bounds |D − tensor.Gemm| for a K-deep GEMM: wmma.Tolerance
// covers one 16-deep tile, and the rounding it models accumulates once
// per tile along K.
func tolerance(p kernels.GemmPrecision, k int) float64 {
	return wmma.Tolerance(mmaConfig(p), maxInput) * float64(k) / 16
}

// sliceConfig is an 8-SM Titan V slice with DRAM and L2 scaled in
// proportion, matching hwproxy.Model.Scale on the proxy side.
func sliceConfig() gpu.Config {
	cfg := gpu.TitanV()
	frac := float64(sliceSMs) / float64(cfg.NumSMs)
	cfg.NumSMs = sliceSMs
	cfg.Mem.DRAMBytesPerCycle = max(8, int(float64(cfg.Mem.DRAMBytesPerCycle)*frac))
	cfg.Mem.DRAMChannels = max(1, int(float64(cfg.Mem.DRAMChannels)*frac))
	cfg.Mem.L2SizeBytes = max(64<<10, int(float64(cfg.Mem.L2SizeBytes)*frac))
	cfg.Mem.L2Banks = max(1, int(float64(cfg.Mem.L2Banks)*frac))
	return cfg
}

// operands are one problem size's seeded host matrices.
type operands struct{ a, b, c *tensor.Matrix }

func genOperands(seed int64, n int) operands {
	rng := rand.New(rand.NewSource(seed*1009 + int64(n)))
	o := operands{tensor.New(n, n, tensor.RowMajor), tensor.New(n, n, tensor.RowMajor), tensor.New(n, n, tensor.RowMajor)}
	o.a.FillRandomFP16(rng)
	o.b.FillRandomFP16(rng)
	o.c.FillRandomFP16(rng)
	return o
}

// prepared is one launch ready to run: built kernel, uploaded operands.
type prepared struct {
	gemmCase
	l    *kernels.Launch
	dev  *cuda.Device
	args []uint64
	cd   wmma.Precision
}

// setupGEMM generates the inputs, builds every kernel and uploads its
// operands: the work setup_s times.
func setupGEMM(cases []gemmCase, seed int64, tr *tracer, root *span) ([]prepared, error) {
	ops := make(map[int]operands)
	var out []prepared
	for i, c := range cases {
		o, ok := ops[c.n]
		if !ok {
			sp := tr.start("bench.genInputs", root, i)
			o = genOperands(seed, c.n)
			sp.stop()
			ops[c.n] = o
		}
		sp := tr.start("kernels.build", root, i)
		l, err := c.build()
		sp.stop()
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", c.name, err)
		}
		ab, cd := elemsOf(c.prec)
		dev := &cuda.Device{Mem: cuda.NewDeviceMemory()}
		sp = tr.start("cuda.upload", root, i)
		args := []uint64{dev.UploadMatrix(o.a, ab), dev.UploadMatrix(o.b, ab), dev.UploadMatrix(o.c, cd),
			dev.MallocMatrix(c.n, c.n, cd)}
		sp.stop()
		out = append(out, prepared{gemmCase: c, l: l, dev: dev, args: args, cd: cd})
	}
	return out, nil
}

// launchResult is one launch of one pass.
type launchResult struct {
	cold, warm   *gpu.Stats
	coldS, warmS float64 // host seconds in Simulator.Run
	funcS        float64 // host seconds in ptx.RunGrid (traced passes)
	scale        float64 // host-speed factor calibrated just before the launch
	err          error   // a failed call or check
}

// passResult is one pass over the launch set.
type passResult struct {
	launches []launchResult
	allocMB  float64
	gcs      float64
}

// perLaunch returns each launch's median calibrated time over the
// passes; f reports a launch's host seconds in one pass, or false if it
// has none. Launches without a sample are left out.
func perLaunch(passes []passResult, f func(launchResult) (float64, bool)) []float64 {
	var out []float64
	for i := range passes[0].launches {
		var xs []float64
		for _, pr := range passes {
			if v, ok := f(pr.launches[i]); ok {
				xs = append(xs, v*pr.launches[i].scale)
			}
		}
		if len(xs) > 0 {
			out = append(out, stats.Median(xs))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// gemmRunner holds one GEMM workload's state across passes.
type gemmRunner struct {
	cfg   gpu.Config
	cal   *calibrator
	prep  []prepared
	want  map[int]*tensor.Matrix // reference D per problem size
	first []launchResult         // pass 0, the reference for Stats identity
}

// clearD zeroes a launch's output so a launch that fails to write D is
// caught by the check.
func (p *prepared) clearD() {
	p.dev.Mem.Write(p.args[3], make([]byte, p.n*p.n*cuda.ElemBytes(p.cd)))
}

// checkD compares the launch's D against the float64 reference.
func (g *gemmRunner) checkD(p *prepared, tr *tracer, parent *span, req int) error {
	sp := tr.start("cuda.ReadMatrix", parent, req)
	got := p.dev.ReadMatrix(p.args[3], p.n, p.n, tensor.RowMajor, p.cd)
	sp.stop()
	sp = tr.start("bench.check", parent, req)
	d, tol := tensor.MaxAbsDiff(got, g.want[p.n]), tolerance(p.prec, p.n)
	sp.stop()
	if !(d <= tol) {
		return fmt.Errorf("max |D - reference| = %g exceeds %g", d, tol)
	}
	return nil
}

// sameStats reports whether two launches produced identical Stats.
func sameStats(a, b *gpu.Stats) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Trace, y.Trace = nil, nil
	return reflect.DeepEqual(x, y)
}

// pass simulates the launch set once. A traced pass also replays every
// launch functionally through ptx.RunGrid.
func (g *gemmRunner) pass(idx int, tr *tracer) passResult {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res := passResult{launches: make([]launchResult, len(g.prep))}
	for i := range g.prep {
		p := &g.prep[i]
		req := idx*len(g.prep) + i
		lr := &res.launches[i]
		lr.scale = g.cal.scale()
		root := tr.start("bench.launch", nil, req)
		spec := gpu.LaunchSpec{Kernel: p.l.Kernel, Grid: p.l.Grid, Block: p.l.Block, Args: p.args, Global: p.dev.Mem}

		sp := tr.start("cuda.clear", root, req)
		p.clearD()
		sp.stop()
		sp = tr.start("gpu.New", root, req)
		sim, err := gpu.New(g.cfg)
		sp.stop()
		if err != nil {
			lr.err = err
			root.stop()
			continue
		}
		sp = tr.start("gpu.Run", root, req)
		t0 := time.Now()
		lr.cold, lr.err = sim.Run(spec)
		lr.coldS = time.Since(t0).Seconds()
		sp.stop()
		if lr.err == nil {
			lr.err = g.checkD(p, tr, root, req)
		}

		if lr.err == nil && p.n == warmSize {
			sp = tr.start("cuda.clear", root, req)
			p.clearD()
			sp.stop()
			sp = tr.start("gpu.RunWarm", root, req)
			t0 = time.Now()
			lr.warm, lr.err = sim.Run(spec)
			lr.warmS = time.Since(t0).Seconds()
			sp.stop()
			if lr.err == nil {
				lr.err = g.checkD(p, tr, root, req)
			}
		}
		if lr.err == nil && tr != nil {
			sp = tr.start("cuda.clear", root, req)
			p.clearD()
			sp.stop()
			sp = tr.start("ptx.RunGrid", root, req)
			t0 = time.Now()
			lr.err = ptx.RunGrid(p.l.Kernel, p.dev.Mem, p.l.Grid, p.l.Block, p.args)
			lr.funcS = time.Since(t0).Seconds()
			sp.stop()
			if lr.err == nil {
				lr.err = g.checkD(p, tr, root, req)
			}
		}
		if lr.err == nil && g.first != nil &&
			!(sameStats(lr.cold, g.first[i].cold) && sameStats(lr.warm, g.first[i].warm)) {
			lr.err = errors.New("Stats differ from the first pass")
		}
		root.stop()
	}
	runtime.ReadMemStats(&ms1)
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.gcs = float64(ms1.NumGC - ms0.NumGC)
	if g.first == nil {
		g.first = res.launches
	}
	return res
}

// mmaNs times a median wmma.MMAIntoBuf call at both tensor precisions
// and returns the mean of the two medians, in nanoseconds.
func mmaNs(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var meds []float64
	for _, p := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
		cfg := mmaConfig(p)
		a, b, c, d := tensor.New(16, 16, tensor.RowMajor), tensor.New(16, 16, tensor.RowMajor),
			tensor.New(16, 16, tensor.RowMajor), tensor.New(16, 16, tensor.RowMajor)
		a.FillRandomFP16(rng)
		b.FillRandomFP16(rng)
		c.FillRandomFP16(rng)
		buf := make([]fp16.Float16, wmma.QuantBufLen(cfg))
		const calls = 2000
		var per []float64
		for r := 0; r < 15; r++ {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				if err := wmma.MMAIntoBuf(cfg, a, b, c, d, buf); err != nil {
					return math.NaN()
				}
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/calls)
		}
		meds = append(meds, stats.Median(per))
	}
	return stats.Mean(meds)
}

// runGEMM is the tc-gemm / simt-gemm workload body.
func runGEMM(cases []gemmCase, o opts) (*report, error) {
	rep := newReport()
	cfg := sliceConfig()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// The checker's references, computed once and not timed.
	want := make(map[int]*tensor.Matrix)
	for _, c := range cases {
		if _, ok := want[c.n]; !ok {
			op := genOperands(o.seed, c.n)
			want[c.n] = tensor.Gemm(op.a, op.b, op.c, tensor.RowMajor)
		}
	}

	// Set up several times; setup_s is the median calibrated time.
	const nSetups = 7
	cal := newCalibrator(1)
	var setups []float64
	var prep []prepared
	for i := 0; i < nSetups; i++ {
		k := cal.scale()
		st := tr.start("bench.setup", nil, i)
		t0 := time.Now()
		p, err := setupGEMM(cases, o.seed, tr, st)
		setups = append(setups, time.Since(t0).Seconds()*k)
		st.stop()
		if err != nil {
			return nil, err
		}
		prep = p
	}
	g := &gemmRunner{cfg: cfg, cal: cal, prep: prep, want: want}

	// Passes until the run's time is used up. A traced run alternates
	// untraced and traced passes so the overhead is measured in-process.
	var plain, traced []passResult
	start := time.Now()
	for i := 0; ; i++ {
		if o.trace && i%2 == 1 {
			traced = append(traced, g.pass(i, tr))
		} else {
			plain = append(plain, g.pass(i, nil))
		}
		if time.Since(start).Seconds() >= o.seconds && len(plain) >= 1 && (!o.trace || len(traced) >= 1) {
			break
		}
	}

	// Correctness and the end-to-end figures, from the untraced passes.
	proxy := hwproxy.TitanV().Scale(sliceSMs)
	for _, pr := range append(append([]passResult(nil), plain...), traced...) {
		for i, lr := range pr.launches {
			rep.attempted++
			if lr.err != nil {
				rep.failed++
				rep.note("FAIL %s: %v", prep[i].name, lr.err)
			}
		}
	}
	// Every timing is calibrated to the reference host's speed (see
	// calib.go) and is each launch's median over the passes. Latency
	// percentiles are taken over the launches, each represented by its
	// median: the set mixes two problem sizes, so a percentile over raw
	// samples would jump between launches with the noise.
	coldOf := func(lr launchResult) (float64, bool) { return lr.coldS, true }
	warmOf := func(lr launchResult) (float64, bool) { return lr.warmS, lr.warm != nil }
	funcOf := func(lr launchResult) (float64, bool) { return lr.funcS, true }
	cold, warm := perLaunch(plain, coldOf), perLaunch(plain, warmOf)
	var slow []float64
	for _, pr := range plain {
		for _, lr := range pr.launches {
			slow = append(slow, 1/lr.scale)
		}
	}
	var coldMs, warmMs []float64
	for _, s := range cold {
		coldMs = append(coldMs, s*1e3)
	}
	for _, s := range warm {
		warmMs = append(warmMs, s*1e3)
	}
	// The IPC correlation is over the CUTLASS launches when the set has
	// any (tc-gemm, as in Fig. 14b), else over every launch.
	corrAll := true
	for _, p := range prep {
		corrAll = corrAll && !p.cutlass
	}
	var warpInsts, threadInsts, cycles, tensorOps, dram, conflicts float64
	var l1, l2, errPct, hwIPC, simIPC []float64
	for i, lr := range g.first {
		st := lr.cold
		if st == nil {
			continue
		}
		c := prep[i]
		warpInsts += float64(st.WarpInstructions)
		threadInsts += float64(st.ThreadInstructions)
		cycles += float64(st.Cycles)
		tensorOps += float64(st.TensorOps)
		dram += float64(st.DRAMAccesses)
		conflicts += float64(st.SharedConflicts)
		l1 = append(l1, st.L1HitRate)
		l2 = append(l2, st.L2HitRate)
		pc := proxy.Cycles(c.proxy)
		errPct = append(errPct, 100*math.Abs(float64(st.Cycles)-pc)/pc)
		if c.cutlass || corrAll {
			hwIPC = append(hwIPC, proxy.IPC(st.WarpInstructions, c.proxy))
			simIPC = append(simIPC, st.IPC())
		}
	}
	runS := sum(cold)
	rep.e2e["run_s"] = runS
	rep.e2e["host_slowdown"] = stats.Median(slow)
	rep.e2e["sim_kwips"] = warpInsts / runS / 1e3
	rep.e2e["jobs_per_s"] = float64(len(prep)) / runS
	rep.e2e["cold_p50_ms"] = stats.Percentile(coldMs, 50)
	rep.e2e["cold_p90_ms"] = stats.Percentile(coldMs, 90)
	rep.e2e["cached_p50_ms"] = stats.Percentile(warmMs, 50)
	rep.e2e["cached_p99_ms"] = stats.Percentile(warmMs, 99)
	rep.e2e["cycle_err_pct"] = stats.Mean(errPct)
	if len(hwIPC) > 1 {
		rep.e2e["ipc_corr_pct"] = 100 * stats.Correlation(hwIPC, simIPC)
	}
	rep.e2e["setup_s"] = stats.Median(setups)
	rep.e2e["max_rss_mb"] = selfHWM()
	rep.samples = fmt.Sprintf("%d passes × %d launches (%d re-run warm); timings are calibrated per-launch medians over passes",
		len(plain), len(prep), len(warm))

	// Deterministic simulated counts, one pass.
	rep.layer["gpu.cycles"] = cycles
	rep.layer["gpu.warp_insts"] = warpInsts
	rep.layer["gpu.thread_insts"] = threadInsts
	rep.layer["gpu.ipc"] = warpInsts / cycles
	rep.layer["tcore.tensor_ops"] = tensorOps
	rep.layer["mem.dram_accesses"] = dram
	rep.layer["mem.shared_conflicts"] = conflicts
	rep.layer["mem.l1_hit_rate"] = stats.Mean(l1)
	rep.layer["mem.l2_hit_rate"] = stats.Mean(l2)

	var allocs, gcs []float64
	for _, pr := range plain {
		allocs = append(allocs, pr.allocMB)
		gcs = append(gcs, pr.gcs)
	}
	rep.layer["runtime.alloc_mb"] = stats.Median(allocs)
	rep.layer["runtime.gc_count"] = stats.Median(gcs)

	if o.trace {
		gpuRun, funcS := sum(perLaunch(traced, coldOf)), sum(perLaunch(traced, funcOf))
		mma := mmaNs(o.seed)
		// Mean per setup, from the setup spans.
		rep.layer["kernels.build_ms"] = 1e3 * tr.total("kernels.build") / nSetups
		rep.layer["cuda.xfer_ms"] = 1e3 * tr.total("cuda.upload") / nSetups
		rep.layer["gpu.run_s"] = gpuRun
		rep.layer["ptx.functional_s"] = funcS
		rep.layer["gpu.model_s"] = gpuRun - funcS
		rep.layer["ptx.ns_per_thread_inst"] = funcS / threadInsts * 1e9
		rep.layer["gpu.ns_per_warp_inst"] = gpuRun / warpInsts * 1e9
		rep.layer["gpu.ns_per_cycle"] = gpuRun / cycles * 1e9
		rep.layer["wmma.mma_ns"] = mma
		rep.layer["wmma.est_s"] = tensorOps * mma / 1e9
		rep.layer["trace.overhead_s"] = gpuRun - runS
		rep.zero(simdLayers)
		rep.tr = tr
	}
	return rep, nil
}
