package ptx

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched fragment path must be invisible at the architectural
// level: for any wmma kernel, the registers written, the bytes moved
// (global and shared), and the per-lane access stream the timing model
// sees must match the per-element path exactly — the path a decoded
// copy with its fragment plans cleared takes (perElementCopy), and the
// path partial or predicated warps take in production. The round-trip
// kernels below cover every mapping family the batched plans encode —
// both Volta layouts and precisions, the three Turing shapes, the
// integer datapath — plus the edges that force the per-element
// fallback: shared-window straddling runs and partially populated
// warps.

// wmmaRoundTrip builds a load A/B/C → mma → store D kernel for cfg,
// with C loaded from cAddr and D stored to dAddr (operands so tests can
// point them at shared memory or window-straddling bases).
func wmmaRoundTrip(t *testing.T, cfg wmma.Config, cLayout tensor.Layout, shared int) *Kernel {
	t.Helper()
	b := NewBuilder("wmma_frag")
	pa := b.Param("a", U64)
	pc := b.Param("c", U64)
	pd := b.Param("d", U64)
	var smem uint64
	if shared > 0 {
		smem = b.Shared(shared)
		// Fill the shared window deterministically: each lane stores a
		// few id-derived words before the wmma ops read them back.
		lane := b.Reg()
		b.Mov(U32, lane, SR(SRegLaneID))
		v := b.Reg()
		b.Mad(U32, v, R(lane), Imm(2654435761), Imm(97))
		addr := b.Reg()
		b.MulWide(addr, R(lane), Imm(4))
		b.Add(U64, addr, R(addr), Imm(smem))
		for i := 0; i < shared/(32*4); i++ {
			b.St(Shared, 32, R(addr), []Operand{R(v)})
			b.Add(U64, addr, R(addr), Imm(128))
			b.Add(U32, v, R(v), Imm(31))
		}
	}
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, cLayout, cfg.CType, R(pc), Imm(uint64(cfg.Shape.N)))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, cLayout, cfg.DType, R(pd), fd, Imm(uint64(cfg.Shape.N)))
	b.Exit()
	return b.MustBuild()
}

// fragTestMem is a sparse global memory with deterministic background
// content: reads of untouched bytes derive from the address, writes
// land in a map. It accepts any address, so runs that resolve just
// below the generic shared window (huge global addresses) execute on
// both paths instead of overrunning a flat buffer.
type fragTestMem struct{ writes map[uint64]byte }

func newFragTestMem() *fragTestMem { return &fragTestMem{writes: make(map[uint64]byte)} }

func (m *fragTestMem) Read(addr uint64, buf []byte) {
	for i := range buf {
		a := addr + uint64(i)
		if v, ok := m.writes[a]; ok {
			buf[i] = v
		} else {
			buf[i] = byte(a*13 + 5)
		}
	}
}

func (m *fragTestMem) Write(addr uint64, data []byte) {
	for i, b := range data {
		m.writes[addr+uint64(i)] = b
	}
}

// fragRun captures everything the two fragment paths must agree on.
type fragRun struct {
	global   map[uint64]byte
	shared   []byte
	regs     []uint64
	accesses [][]Access
}

// perElementCopy returns a copy of k whose decoded program has every
// fragment plan cleared, so its warps take the per-element wmma path.
func perElementCopy(k *Kernel) *Kernel {
	c := *k
	c.prog = append([]DInstr(nil), k.prog...)
	for i := range c.prog {
		d := &c.prog[i]
		d.wplan, d.wA, d.wB, d.wC, d.wD = nil, nil, nil, nil, nil
	}
	return &c
}

// runFragKernel executes the kernel on every warp of one CTA, checking
// every wmma.load/store's access stream against the per-lane reference
// emission as it goes.
func runFragKernel(t *testing.T, k *Kernel, block Dim3, args []uint64) fragRun {
	t.Helper()
	mem := newFragTestMem()
	env := &Env{
		Global:   mem,
		Shared:   make([]byte, k.SharedBytes),
		GridDim:  D1(1),
		BlockDim: block,
		Clock:    func() uint64 { return 0 },
	}
	run := fragRun{}
	nWarps := (block.Count() + 31) / 32
	for id := 0; id < nWarps; id++ {
		w, err := NewWarp(k, env, id, args)
		if err != nil {
			t.Fatal(err)
		}
		for !w.Exited {
			var want []Access
			if d := w.PeekD(); d != nil && (d.Class == DClassWmmaLoad || d.Class == DClassWmmaStore) {
				want = refFragAccesses(t, w, d)
			}
			res, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if want != nil && !reflect.DeepEqual(res.LaneAccesses(), want) {
				t.Fatalf("warp %d pc %d: access stream differs from the per-lane reference:\ngot:  %v\nwant: %v",
					id, w.PC-1, res.LaneAccesses(), want)
			}
			if acc := res.LaneAccesses(); len(acc) > 0 {
				run.accesses = append(run.accesses, append([]Access(nil), acc...))
			}
		}
		run.regs = append(run.regs, append([]uint64(nil), w.regs...)...)
	}
	run.global = mem.writes
	run.shared = env.Shared
	return run
}

func compareFragRuns(t *testing.T, perElem, batched fragRun) {
	t.Helper()
	if !reflect.DeepEqual(perElem.accesses, batched.accesses) {
		for i := range perElem.accesses {
			if i < len(batched.accesses) && !reflect.DeepEqual(perElem.accesses[i], batched.accesses[i]) {
				t.Fatalf("access stream %d differs:\nper-element: %v\nbatched:     %v",
					i, perElem.accesses[i], batched.accesses[i])
			}
		}
		t.Fatalf("access stream lengths differ: per-element %d, batched %d",
			len(perElem.accesses), len(batched.accesses))
	}
	if !reflect.DeepEqual(perElem.global, batched.global) {
		t.Error("global memory differs between fragment paths")
	}
	if !reflect.DeepEqual(perElem.shared, batched.shared) {
		t.Error("shared memory differs between fragment paths")
	}
	if !reflect.DeepEqual(perElem.regs, batched.regs) {
		t.Error("register state differs between fragment paths")
	}
}

func TestFragmentPathMatchesLegacy(t *testing.T) {
	volta := func(cd wmma.Precision, al, bl tensor.Layout) wmma.Config {
		return wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
			ALayout: al, BLayout: bl, AType: wmma.F16, CType: cd, DType: cd}
	}
	turing := func(sh wmma.Shape) wmma.Config {
		return wmma.Config{Arch: wmma.Turing, Shape: sh,
			ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	}
	cases := []struct {
		name    string
		cfg     wmma.Config
		cLayout tensor.Layout
		shared  int
		block   Dim3
		args    []uint64
	}{
		{"volta_mixed_rowrow", volta(wmma.F32, tensor.RowMajor, tensor.RowMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_mixed_rowcol", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_mixed_colcol", volta(wmma.F32, tensor.ColMajor, tensor.ColMajor),
			tensor.ColMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_fp16acc", volta(wmma.F16, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_16x16x16", turing(wmma.M16N16K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_32x8x16", turing(wmma.M32N8K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_8x32x16", turing(wmma.M8N32K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_s8", wmma.Config{Arch: wmma.Turing, Shape: wmma.M16N16K16,
			ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: wmma.S8, CType: wmma.S32, DType: wmma.S32},
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		// C in shared memory, D stored back to shared: the batched
		// fragment movement must unpack from and pack into the window.
		{"volta_shared_cd", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4096, D1(32), []uint64{0, SharedBase, SharedBase + 2048}},
		// C loads straddle the generic shared-window boundary: elements
		// below SharedBase resolve to global, the rest into the window,
		// so whole-run bulk moves must fall back per element.
		{"volta_window_straddle", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4096, D1(32), []uint64{0, SharedBase - 16, SharedBase + 2048}},
		// A tiny window fully contained inside one fragment run: both
		// run endpoints resolve to global, but interior elements resolve
		// into the window, so the endpoint check alone must not claim
		// the bulk path. Load side: A/B's 32-byte f16 runs over a
		// 16-byte window; store side: D's 16-byte f16 runs over a
		// 4-byte window.
		{"volta_window_contained_load", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 16, D1(32), []uint64{SharedBase - 8, 2048, 4096}},
		{"volta_window_contained_store", volta(wmma.F16, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4, D1(32), []uint64{0, 2048, SharedBase - 8}},
		// Partially populated warps (8 and 16 active lanes in warp 1/2)
		// take the per-lane fallback on both paths.
		{"partial_warps", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32 + 16), []uint64{0, 2048, 4096}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := wmmaRoundTrip(t, tc.cfg, tc.cLayout, tc.shared)
			perElem := runFragKernel(t, perElementCopy(k), tc.block, tc.args)
			batched := runFragKernel(t, k, tc.block, tc.args)
			compareFragRuns(t, perElem, batched)
		})
	}
}

// fragFuzzWarp builds a bare full-warp executor plus the decoded
// all-register operand shape the batched gather/scatter consumes.
func fragFuzzWarp(nslots int) (*Warp, *DInstr) {
	k := &Kernel{Name: "fragfuzz", NumRegs: nslots}
	w := &Warp{Kernel: k, Env: &Env{}}
	w.nLanes = 32
	for i := range w.Active {
		w.Active[i] = true
	}
	w.regs = make([]uint64, 32*nslots)
	in := &Instr{Op: OpWmmaMMA}
	d := &DInstr{In: in, predID: -1}
	for s := 0; s < nslots; s++ {
		in.Src = append(in.Src, R(Reg{ID: s}))
		in.Dst = append(in.Dst, Reg{ID: s})
		d.srcs = append(d.srcs, srcOp{kind: OperandReg, reg: int32(s)})
		d.dsts = append(d.dsts, int32(s))
	}
	return w, d
}

// coordBits derives a deterministic register value for a tile
// coordinate. Duplicate fragment copies (Volta A/B) receive identical
// bits, matching the architectural invariant wmma.load establishes —
// the property that makes the gather write order immaterial.
func coordBits(seed uint64, c wmma.Coord) uint64 {
	h := seed ^ (uint64(c.Row)*0x9E3779B97F4A7C15 + uint64(c.Col)*0xC2B2AE3D27D4EB4F + 1)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// FuzzFragGatherMatchesReference drives the batched fragment machinery
// against the per-element reference across random mappings, layouts,
// precisions, strides and register images: the gathered tile, the
// scattered registers, and the per-lane memory addresses must all be
// bit-identical.
func FuzzFragGatherMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1), int64(16))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint64(2), int64(256))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint64(3), int64(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(4), int64(8))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0), uint64(5), int64(-16))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), uint64(6), int64(3))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(6), uint64(7), int64(17))
	f.Fuzz(func(t *testing.T, archSel, shapeSel, opSel, layoutSel, elemSel uint8, seed uint64, stride int64) {
		arch := wmma.Arch(archSel % 2)
		shape := []wmma.Shape{wmma.M16N16K16, wmma.M32N8K16, wmma.M8N32K16}[shapeSel%3]
		op := wmma.Operand(opSel % 3)
		layout := tensor.Layout(layoutSel % 2)
		elem := []wmma.Precision{wmma.F16, wmma.F32, wmma.S8, wmma.U8, wmma.S4, wmma.U4, wmma.S32}[elemSel%7]
		m, err := wmma.Map(arch, shape, op, layout, elem)
		if err != nil {
			t.Skip() // unsupported combination: nothing to compare
		}
		p := planFragment(m)
		if p == nil {
			t.Fatalf("standard mapping %v/%v/%v produced no plan", arch, shape, op)
		}
		w, d := fragFuzzWarp(p.slots)
		in := d.In
		in.WMap = m

		// Gather: consistent per-coordinate register bits, compared
		// bitwise (NaN payloads included).
		for lane := range m.Lanes {
			for slot, c := range m.Lanes[lane] {
				w.regs[lane*p.slots+slot] = coordBits(seed, c)
			}
		}
		ref := w.gatherTile(in, m, 0, elem, 0)
		vec := w.gatherTileVec(d, p, 0, elem, 1)
		if ref.Rows != vec.Rows || ref.Cols != vec.Cols {
			t.Fatalf("tile dims differ: %dx%d vs %dx%d", ref.Rows, ref.Cols, vec.Rows, vec.Cols)
		}
		for i := range ref.Data {
			if math.Float64bits(ref.Data[i]) != math.Float64bits(vec.Data[i]) {
				t.Fatalf("gather element %d differs: %v vs %v (mapping %v/%v/%v %v %v)",
					i, ref.Data[i], vec.Data[i], arch, shape, op, layout, elem)
			}
		}

		// Scatter: arbitrary tile values through both encode paths.
		rows, cols := m.Shape.Dims(m.Op)
		tile := tensor.New(rows, cols, tensor.RowMajor)
		for i := range tile.Data {
			tile.Data[i] = math.Float64frombits(coordBits(seed^0xABCD, wmma.Coord{Row: i, Col: 7}))
		}
		clear(w.regs)
		w.scatterTile(in, m, elem, tile)
		refRegs := append([]uint64(nil), w.regs...)
		clear(w.regs)
		w.scatterTileVec(d, p, elem, tile)
		if !reflect.DeepEqual(refRegs, w.regs) {
			t.Fatalf("scatter registers differ (mapping %v/%v/%v %v %v)", arch, shape, op, layout, elem)
		}

		// Addresses: the plan's factored offsets must reproduce
		// memOffsetFor for any stride, including negative and tiny ones.
		elemBytes := uint64(cuda4BitBytes(elem))
		base := seed&0xffff + 1
		for lane := 0; lane < 32; lane++ {
			addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
			for slot, c := range m.Lanes[lane] {
				want := base + uint64(memOffsetFor(m, c, int(stride)))*elemBytes
				if addrs[slot] != want {
					t.Fatalf("lane %d slot %d addr %#x, want %#x (stride %d)",
						lane, slot, addrs[slot], want, stride)
				}
			}
		}
	})
}
