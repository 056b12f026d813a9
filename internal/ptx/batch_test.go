package ptx

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched access path must be invisible at the architectural level:
// for any kernel, the registers written, the bytes moved, and the
// per-lane access stream the timing model sees must match the per-lane
// reference executors below (execLoad/execStore) exactly. The torture
// kernel exercises the shapes the batched fast paths dispatch on —
// unit-stride, broadcast, scattered, mirrored — plus the edges:
// predicated (partially-active) lanes, 16-bit accesses, misaligned and
// sector-spanning addresses, and a partially populated warp.

// execLoad is the per-lane reference for execLoadBatched: one guard
// check, space resolution, Memory call and Access per lane, in lane
// order.
func (w *Warp) execLoad(d *DInstr, res *Result) {
	in := d.In
	words := int(d.words)
	nbytes := uint64(d.membytes)
	var membuf [16]byte
	buf := membuf[:nbytes]
	nr := w.Kernel.NumRegs
	addr0 := &d.srcs[0]
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		addr := d.val(w, base, lane, addr0)
		// Resolve the space once and dispatch directly instead of going
		// through Env.read (which would re-resolve per lane).
		sp, a := w.Env.resolveSpace(in.Space, addr)
		res.Accesses = append(res.Accesses, Access{Lane: lane, Addr: a, Bits: in.Width, Space: sp})
		if sp == Shared {
			copy(buf, w.Env.Shared[a:a+nbytes])
		} else {
			w.Env.Global.Read(a, buf)
		}
		if in.Width == 16 {
			w.regs[base+int(d.dsts[0])] = uint64(buf[0]) | uint64(buf[1])<<8
			continue
		}
		for i := 0; i < words; i++ {
			v := uint64(buf[4*i]) | uint64(buf[4*i+1])<<8 | uint64(buf[4*i+2])<<16 | uint64(buf[4*i+3])<<24
			w.regs[base+int(d.dsts[i])] = v
		}
	}
}

// execStore is the per-lane reference for execStoreBatched.
func (w *Warp) execStore(d *DInstr, res *Result) {
	in := d.In
	words := int(d.words)
	nbytes := uint64(d.membytes)
	var membuf [16]byte
	buf := membuf[:nbytes]
	nr := w.Kernel.NumRegs
	addr0 := &d.srcs[0]
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		addr := d.val(w, base, lane, addr0)
		sp, a := w.Env.resolveSpace(in.Space, addr)
		res.Accesses = append(res.Accesses, Access{Lane: lane, Addr: a, Bits: in.Width, Space: sp, Store: true})
		if in.Width == 16 {
			v := d.val(w, base, lane, &d.srcs[1])
			buf[0], buf[1] = byte(v), byte(v>>8)
		} else {
			for i := 0; i < words; i++ {
				v := d.val(w, base, lane, &d.srcs[1+i])
				buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
		if sp == Shared {
			copy(w.Env.Shared[a:a+nbytes], buf)
		} else {
			w.Env.Global.Write(a, buf)
		}
	}
}

// refStep is Step with ld/st routed through the per-lane reference
// executors.
func refStep(w *Warp) (Result, error) {
	d := w.PeekD()
	if d == nil || (d.Class != DClassLd && d.Class != DClassSt) {
		return w.Step()
	}
	res := Result{Instr: d.In}
	if d.Class == DClassLd {
		w.execLoad(d, &res)
	} else {
		w.execStore(d, &res)
	}
	w.PC++
	return res, nil
}

// buildBatchTorture builds the load/store torture kernel. Every lane
// computes its id-derived addresses; the guard predicate (laneid&1 == 0)
// covers the predicated variants.
func buildBatchTorture() *Kernel {
	b := NewBuilder("batch_torture")
	pbase := b.Param("base", U64)
	smem := b.Shared(4096)

	lane := b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	odd, even := b.Reg(), b.Reg()
	b.And(U32, odd, R(lane), Imm(1))
	p := b.Reg()
	b.Setp(U32, CmpEQ, p, R(odd), Imm(0))
	_ = even

	lane64, tmp64 := b.Reg(), b.Reg()
	b.Cvt(U64, U32, lane64, R(lane))

	// Unit-stride 32-bit global load: base + 4·lane.
	a32 := b.Reg()
	b.MulWide(a32, R(lane), Imm(4))
	b.Add(U64, a32, R(a32), R(pbase))
	v32 := b.Reg()
	b.Ld(Global, 32, []Reg{v32}, R(a32))

	// Misaligned, sector-spanning 64-bit load: base + 30 + 8·lane.
	a64 := b.Reg()
	b.MulWide(a64, R(lane), Imm(8))
	b.Add(U64, a64, R(a64), R(pbase))
	b.Add(U64, a64, R(a64), Imm(30))
	v64 := b.Regs(2)
	b.Ld(Global, 64, v64, R(a64))

	// Predicated 16-bit load at a misaligned address: base + 2·lane + 1.
	a16 := b.Reg()
	b.MulWide(a16, R(lane), Imm(2))
	b.Add(U64, a16, R(a16), R(pbase))
	b.Add(U64, a16, R(a16), Imm(1))
	v16 := b.Reg()
	b.At(p, false).Ld(Global, 16, []Reg{v16}, R(a16))

	// Scattered 32-bit global load: base + 4096 + 128·lane (one sector per
	// lane) — in descending order so the sorted fast path cannot claim it:
	// addr = base + 4096 + 128·(31-lane).
	inv := b.Reg()
	b.Sub(U32, inv, Imm(31), R(lane))
	asc := b.Reg()
	b.MulWide(asc, R(inv), Imm(128))
	b.Add(U64, asc, R(asc), R(pbase))
	b.Add(U64, asc, R(asc), Imm(4096))
	vsc := b.Reg()
	b.Ld(Global, 32, []Reg{vsc}, R(asc))

	// Shared staging: unit-stride 128-bit store, mirrored 32-bit load,
	// broadcast 32-bit load.
	sdst := b.Reg()
	b.MulWide(sdst, R(lane), Imm(16))
	b.Add(U64, sdst, R(sdst), Imm(smem))
	b.St(Shared, 128, R(sdst), []Operand{R(v32), R(vsc), R(v64[0]), R(v64[1])})

	// Mirrored halves: lanes 0-15 and 16-31 read the same 16 words.
	half := b.Reg()
	b.And(U32, half, R(lane), Imm(15))
	smir := b.Reg()
	b.MulWide(smir, R(half), Imm(4))
	b.Add(U64, smir, R(smir), Imm(smem))
	vmir := b.Reg()
	b.Ld(Shared, 32, []Reg{vmir}, R(smir))

	// Broadcast: every lane reads word 5.
	sbc := b.Reg()
	b.Mov(U64, sbc, Imm(smem))
	b.Add(U64, sbc, R(sbc), Imm(20))
	vbc := b.Reg()
	b.Ld(Shared, 32, []Reg{vbc}, R(sbc))

	// Predicated 16-bit shared store (misaligned, odd offset).
	s16 := b.Reg()
	b.MulWide(s16, R(lane), Imm(2))
	b.Add(U64, s16, R(s16), Imm(smem))
	b.Add(U64, s16, R(s16), Imm(2049))
	b.At(p, true).St(Shared, 16, R(s16), []Operand{R(vmir)})

	// Uniform global store: all lanes write the same address (last active
	// lane must win).
	ug := b.Reg()
	b.Mov(U64, ug, R(pbase))
	b.Add(U64, ug, R(ug), Imm(8192))
	b.St(Global, 32, R(ug), []Operand{R(lane)})

	// Strided (non-unit, sorted) 128-bit store: base + 12288 + 32·lane.
	b.MulWide(tmp64, R(lane), Imm(32))
	b.Add(U64, tmp64, R(tmp64), R(pbase))
	b.Add(U64, tmp64, R(tmp64), Imm(12288))
	b.St(Global, 128, R(tmp64), []Operand{R(vmir), R(vbc), R(v32), R(lane)})

	_ = lane64
	b.Exit()
	return b.MustBuild()
}

// batchRun records everything the batched and reference runs of the
// torture kernel must agree on.
type batchRun struct {
	global   []byte
	shared   []byte
	regs     []uint64
	accesses [][]Access
}

// runBatchTorture executes the torture kernel on one CTA, stepping each
// warp with step (Warp.Step or refStep).
func runBatchTorture(t *testing.T, step func(*Warp) (Result, error), block Dim3) batchRun {
	t.Helper()
	k := buildBatchTorture()
	mem := NewFlatMemory(1 << 16)
	for i := range mem.Data {
		mem.Data[i] = byte(i*7 + 3)
	}
	env := &Env{
		Global:   mem,
		Shared:   make([]byte, k.SharedBytes),
		GridDim:  D1(1),
		BlockDim: block,
		Clock:    func() uint64 { return 0 },
	}
	run := batchRun{}
	nWarps := (block.Count() + 31) / 32
	for id := 0; id < nWarps; id++ {
		w, err := NewWarp(k, env, id, []uint64{0})
		if err != nil {
			t.Fatal(err)
		}
		for !w.Exited {
			res, err := step(w)
			if err != nil {
				t.Fatal(err)
			}
			if acc := res.LaneAccesses(); len(acc) > 0 {
				run.accesses = append(run.accesses, append([]Access(nil), acc...))
			}
		}
		run.regs = append(run.regs, append([]uint64(nil), w.regs...)...)
	}
	run.global = mem.Data
	run.shared = env.Shared
	return run
}

func TestBatchedLoadStoreMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block Dim3
	}{
		{"full_warp", D1(32)},
		{"partial_warp", D1(40)}, // second warp has 8 active lanes
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runBatchTorture(t, refStep, tc.block)
			batched := runBatchTorture(t, (*Warp).Step, tc.block)
			if !reflect.DeepEqual(ref.accesses, batched.accesses) {
				for i := range ref.accesses {
					if i < len(batched.accesses) && !reflect.DeepEqual(ref.accesses[i], batched.accesses[i]) {
						t.Fatalf("access stream %d differs:\nreference: %v\nbatched:   %v",
							i, ref.accesses[i], batched.accesses[i])
					}
				}
				t.Fatalf("access stream lengths differ: reference %d, batched %d",
					len(ref.accesses), len(batched.accesses))
			}
			if !reflect.DeepEqual(ref.global, batched.global) {
				t.Error("global memory differs between the reference and batched paths")
			}
			if !reflect.DeepEqual(ref.shared, batched.shared) {
				t.Error("shared memory differs between the reference and batched paths")
			}
			if !reflect.DeepEqual(ref.regs, batched.regs) {
				t.Error("register state differs between the reference and batched paths")
			}
		})
	}
}

// The batched ld/st path must produce exactly one group per space with
// the per-lane addresses — and resolve generic space statically at
// decode time.
func TestBatchedLdStGroupShapes(t *testing.T) {
	b := NewBuilder("group_shapes")
	pbase := b.Param("base", U64)
	lane := b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	addr := b.Reg()
	b.MulWide(addr, R(lane), Imm(4))
	b.Add(U64, addr, R(addr), R(pbase))
	v := b.Reg()
	b.Ld(Global, 32, []Reg{v}, R(addr))
	b.Exit()
	k := b.MustBuild()

	env := &Env{Global: NewFlatMemory(4096), GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(k, env, 0, []uint64{64})
	if err != nil {
		t.Fatal(err)
	}
	w.Step() // mov
	w.Step() // mulwide
	w.Step() // add
	res, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batch) != 1 {
		t.Fatalf("unit-stride load produced %d groups, want 1", len(res.Batch))
	}
	g := res.Batch[0]
	if g.Mask != ^uint32(0) || g.Bits != 32 || g.Space != Global || g.Store {
		t.Fatalf("group = mask %#x bits %d space %v store %v", g.Mask, g.Bits, g.Space, g.Store)
	}
	for i := 0; i < 32; i++ {
		if g.Addr[i] != uint64(64+4*i) {
			t.Fatalf("lane %d addr %d, want %d", i, g.Addr[i], 64+4*i)
		}
	}
}

// wmmaLoadStoreKernel is a full wmma round trip (load A/B/C, mma, store
// D) with mixed row/col-major fragment mappings, so both the batchable
// and structure-divergent per-lane shapes appear.
func wmmaLoadStoreKernel() *Kernel {
	cfg := wmma.Config{
		Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32,
	}
	b := NewBuilder("wmma_batch")
	pa := b.Param("a", U64)
	pd := b.Param("d", U64)
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pa), Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pd), Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, R(pd), fd, Imm(16))
	b.Exit()
	return b.MustBuild()
}

// refFragAccesses is the per-lane reference emission of a wmma.load or
// wmma.store about to execute: every enabled lane's fragment pieces in
// lane-major order, tagged with the space the lane's first element
// resolves to.
func refFragAccesses(t *testing.T, w *Warp, d *DInstr) []Access {
	t.Helper()
	m := d.In.WMap
	base, err := w.uniformOperand(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	stride, err := w.uniformOperand(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []Access
	for lane := 0; lane < 32; lane++ {
		if !w.laneEnabled(lane, d.In) {
			continue
		}
		var addrs []uint64
		for _, c := range m.Lanes[lane] {
			addrs = append(addrs, base+uint64(memOffsetFor(m, c, int(stride)))*uint64(d.membytes))
		}
		sp, _ := w.Env.resolveSpace(d.In.Space, addrs[0])
		for _, p := range w.fragPieces(addrs, m.Elem.Bits()) {
			out = append(out, Access{Lane: lane, Addr: p.addr, Bits: int(p.bits), Space: sp,
				Store: d.Class == DClassWmmaStore})
		}
	}
	return out
}

// A wmma load/store must batch into slot-aligned groups that expand to
// the reference per-lane access list.
func TestBatchedWmmaMatchesLegacy(t *testing.T) {
	k := wmmaLoadStoreKernel()
	mem := NewFlatMemory(4096)
	for i := range mem.Data {
		mem.Data[i] = byte(i * 5)
	}
	env := &Env{Global: mem, GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(k, env, 0, []uint64{0, 2048})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for !w.Exited {
		var want []Access
		if d := w.PeekD(); d != nil && (d.Class == DClassWmmaLoad || d.Class == DClassWmmaStore) {
			want = refFragAccesses(t, w, d)
			checked++
		}
		res, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Batch) == 0 && len(res.Accesses) > 0 {
			t.Errorf("pc %d: uniform fragment fell back to per-lane accesses", w.PC-1)
		}
		if got := res.LaneAccesses(); want != nil && !reflect.DeepEqual(got, want) {
			t.Errorf("pc %d: wmma access stream differs: batched %d entries, reference %d", w.PC-1, len(got), len(want))
		}
	}
	if checked != 4 {
		t.Fatalf("checked %d wmma load/store instructions, want 4", checked)
	}
}
