package gpu

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The golden-stats regression fixture: a snapshot of quick-grid Stats
// for a small basket of workloads (SIMT and wmma GEMMs, each scheduler
// policy) checked into testdata. The per-PR refactors so far (decoded
// ALU, event-driven scheduling, batched memory, batched fragments) each
// re-derived their own equivalence tests; the fixture catches silent
// timing drift from any future change without new machinery — if the
// drift is intentional, regenerate with
//
//	go test ./internal/gpu -run TestGoldenStats -update
//
// and review the diff like any other golden file.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenEntry is one (workload, policy) cell of the fixture.
type goldenEntry struct {
	Name  string `json:"name"`
	Stats Stats  `json:"stats"`
}

// goldenWorkloads returns the fixture basket in a fixed order. Sizes
// are the quick-grid scale: big enough to exercise staging, barriers,
// tensor ops and multi-CTA dispatch, small enough to run in
// milliseconds.
func goldenWorkloads(t *testing.T) []struct {
	name string
	spec LaunchSpec
} {
	t.Helper()
	build := func(l *kernels.Launch, err error) LaunchSpec {
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
			Global: ptx.NewFlatMemory(256 << 10),
		}
	}
	// The scheduler-pressure cell needs its own layout: 16 CTAs across 2
	// SMs pin every SM at its 64-warp occupancy cap (16 warps per
	// sub-core), so the issue-order structures run at full depth, and the
	// 256×256 C/D matrices outgrow the shared 256KB arena.
	buildPressure := func(l *kernels.Launch, err error) LaunchSpec {
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 384 << 10},
			Global: ptx.NewFlatMemory(640 << 10),
		}
	}
	return []struct {
		name string
		spec LaunchSpec
	}{
		{"sgemm-simt-64x64x32", build(kernels.SGEMMSimt(64, 64, 32))},
		{"hgemm-simt-64x128x16", build(kernels.HGEMMSimt(64, 128, 16))},
		{"wmma-mixed-64x64x32", build(kernels.WMMAGemmShared(kernels.TensorMixed, 64, 64, 32))},
		{"wmma-fp16-32x32x64", build(kernels.WMMAGemmShared(kernels.TensorFP16, 32, 32, 64))},
		{"sgemm-simt-pressure-256x256x32", buildPressure(kernels.SGEMMSimt(256, 256, 32))},
		{"fallback-wmma-ldst-48t", LaunchSpec{
			Kernel: fallbackKernel(), Grid: ptx.D1(2), Block: ptx.D1(48),
			Args:   []uint64{0, 64 << 10},
			Global: sparseMemory{},
		}},
	}
}

// fallbackKernel drives the executor's automatic fallbacks through the
// timing model: guarded ld/st that leave warp 1 of a 48-thread CTA
// partially masked, the per-element wmma fragment loops that warp's 16
// lanes take, and a C tile whose rows run past the end of the shared
// window, so lanes disagree on the resolved space and the fragment
// access stream degrades to per-lane Result.Accesses.
func fallbackKernel() *ptx.Kernel {
	const window = 1024
	b := ptx.NewBuilder("fallback")
	pa := b.Param("a", ptx.U64)
	pd := b.Param("d", ptx.U64)
	smem := b.Shared(window)
	tid, p, off, addr, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(ptx.U32, tid, ptx.SR(ptx.SRegTidX))
	b.MulWide(off, ptx.R(tid), ptx.Imm(4))
	b.Add(ptx.U64, addr, ptx.R(off), ptx.R(pa))
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(tid), ptx.Imm(40))
	b.At(p, false).Ld(ptx.Global, 32, []ptx.Reg{v}, ptx.R(addr))
	b.Add(ptx.U64, addr, ptx.R(off), ptx.Imm(smem))
	b.At(p, false).St(ptx.Shared, 32, ptx.R(addr), []ptx.Operand{ptx.R(v)})
	b.Bar()
	cfg := mixedCfg()
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, ptx.R(pa), ptx.Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, ptx.R(pa), ptx.Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType,
		ptx.Imm(smem+window-512), ptx.Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, ptx.R(pd), fd, ptx.Imm(16))
	b.Exit()
	return b.MustBuild()
}

// sparseMemory is a global memory that accepts any address, so the
// fragment rows that resolve past the shared window (just above
// ptx.SharedBase) execute; untouched bytes read as zero.
type sparseMemory map[uint64]byte

func (m sparseMemory) Read(addr uint64, buf []byte) {
	for i := range buf {
		buf[i] = m[addr+uint64(i)]
	}
}

func (m sparseMemory) Write(addr uint64, data []byte) {
	for i, v := range data {
		m[addr+uint64(i)] = v
	}
}

func TestGoldenStats(t *testing.T) {
	var got []goldenEntry
	for _, w := range goldenWorkloads(t) {
		for _, pol := range Schedulers() {
			cfg := TitanV()
			cfg.NumSMs = 2
			cfg.Scheduler = pol
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(w.spec)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.name, pol, err)
			}
			if st.Cycles == 0 || st.WarpInstructions == 0 {
				t.Fatalf("%s/%v: degenerate run %+v", w.name, pol, st)
			}
			got = append(got, goldenEntry{Name: w.name + "/" + pol.String(), Stats: *st})
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenStatsPath)
		return
	}

	data, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("entry %d is %q, fixture has %q (regenerate with -update)", i, got[i].Name, want[i].Name)
		}
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("%s: stats drifted from the golden fixture\ngot:  %+v\nwant: %+v\n(if intentional, regenerate with -update)",
				got[i].Name, got[i].Stats, want[i].Stats)
		}
	}
}
