package ptx

import (
	"bytes"
	"math/rand"
	"testing"
)

// opsCoverageKernel builds a kernel exercising every ALU opcode/type pair
// with a specialized decoded executor (plus a few that fall back to the
// generic path), storing every intermediate to global memory so the two
// execution modes can be compared byte for byte.
func opsCoverageKernel(t *testing.T) *Kernel {
	t.Helper()
	b := NewBuilder("ops_coverage")
	out := b.Param("out", U64)
	slot := 0
	store := func(r Reg) {
		addr := b.Reg()
		tid := b.Reg()
		b.Mov(U32, tid, SR(SRegTidX))
		// Each lane writes its own 4-byte slot: out + (slot*32 + tid)*4.
		b.Mad(U32, addr, R(tid), Imm(4), Imm(uint64(slot*32*4)))
		addr64 := b.Reg()
		b.Cvt(U64, U32, addr64, R(addr))
		b.Add(U64, addr64, R(addr64), R(out))
		b.St(Global, 32, R(addr64), []Operand{R(r)})
		slot++
	}

	tid := b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))

	// Integer arithmetic across types.
	r := b.Reg()
	b.Add(U32, r, R(tid), Imm(13))
	store(r)
	b.Sub(S32, r, R(tid), Imm(29))
	store(r)
	b.Mul(U32, r, R(tid), Imm(2654435761))
	store(r)
	b.Mul(S32, r, R(tid), ImmS(-7))
	store(r)
	b.Mad(U32, r, R(tid), Imm(17), Imm(5))
	store(r)
	b.Mad(S32, r, R(tid), ImmS(-3), ImmS(100))
	store(r)
	b.MulWide(r, R(tid), Imm(0x10001))
	store(r)
	b.Min(U32, r, R(tid), Imm(7))
	store(r)
	b.Max(S32, r, R(tid), Imm(11))
	store(r)
	b.Div(U32, r, R(tid), Imm(3))
	store(r)
	b.Rem(S32, r, R(tid), Imm(5))
	store(r)

	// Bitwise and shifts.
	b.And(U32, r, R(tid), Imm(0x55))
	store(r)
	b.Or(U32, r, R(tid), Imm(0xa0))
	store(r)
	b.Xor(U32, r, R(tid), Imm(0xff))
	store(r)
	b.Shl(U32, r, R(tid), Imm(3))
	store(r)
	b.Shr(U32, r, R(tid), Imm(1))
	store(r)
	neg := b.Reg()
	b.Mul(S32, neg, R(tid), ImmS(-1024))
	b.Shr(S32, r, R(neg), Imm(4)) // arithmetic shift keeps the sign
	store(r)

	// Floats: f32 arithmetic, fused mad, conversions.
	f, g := b.Reg(), b.Reg()
	b.Cvt(F32, U32, f, R(tid))
	b.Cvt(F32, S32, g, R(neg))
	b.Add(F32, r, R(f), R(g))
	store(r)
	b.Sub(F32, r, R(f), R(g))
	store(r)
	b.Mul(F32, r, R(f), R(g))
	store(r)
	b.Mad(F32, r, R(f), R(g), R(f))
	store(r)
	b.Div(F32, r, R(g), R(f))
	store(r)
	h := b.Reg()
	b.Cvt(F16, F32, h, R(f))
	store(h)
	b.Cvt(F32, F16, r, R(h))
	store(r)
	b.Cvt(U32, F32, r, R(f))
	store(r)

	// Packed-half mad (the HGEMM inner loop).
	h2 := b.Reg()
	dup := b.Reg()
	b.Shl(U32, dup, R(h), Imm(16))
	b.Or(U32, h2, R(h), R(dup))
	b.Mad(F16X2, r, R(h2), R(h2), R(h2))
	store(r)

	// Predicates: setp across types, selp, predicated execution, and a
	// predicated branch (exercises the pre-resolved branch target).
	p := b.Reg()
	b.Setp(U32, CmpLT, p, R(tid), Imm(16))
	store(p)
	b.Setp(S32, CmpGE, p, R(neg), ImmS(-8192))
	store(p)
	b.Setp(F32, CmpGT, p, R(f), Imm(uint64(0x41000000))) // 8.0f
	store(p)
	b.Selp(U32, r, Imm(111), Imm(222), R(p))
	store(r)
	b.Setp(U32, CmpEQ, p, R(tid), Imm(0))
	b.At(p, false).Mov(U32, r, Imm(777))
	b.At(p, true).Mov(U32, r, Imm(888))
	store(r)

	// Loop with a predicated backward branch.
	i, acc, q := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, i, Imm(0))
	b.Mov(U32, acc, Imm(0))
	b.Label("top")
	b.Add(U32, acc, R(acc), R(tid))
	b.Add(U32, i, R(i), Imm(1))
	b.Setp(U32, CmpLT, q, R(i), Imm(5))
	b.BraIf(q, false, "top")
	store(acc)

	b.Exit()
	return b.MustBuild()
}

// interpretedCopy returns a copy of k whose decoded program routes every
// ALU and SFU instruction through aluGeneric, the per-lane execALU
// interpreter — the reference the specialized executors must match.
func interpretedCopy(k *Kernel) *Kernel {
	c := *k
	c.prog = append([]DInstr(nil), k.prog...)
	for i := range c.prog {
		if d := &c.prog[i]; d.Class == DClassALU || d.Class == DClassSFU {
			d.alu = aluGeneric
		}
	}
	return &c
}

// The decoded table-driven dispatch must produce bit-identical results to
// the per-lane interpreted path for every operation.
func TestDecodedMatchesInterpreted(t *testing.T) {
	run := func(k *Kernel) []byte {
		mem := NewFlatMemory(64 << 10)
		if err := RunGrid(k, mem, D1(2), D1(64), []uint64{0}); err != nil {
			t.Fatal(err)
		}
		return mem.Data
	}
	k := opsCoverageKernel(t)
	decoded := run(k)
	interpreted := run(interpretedCopy(k))
	if !bytes.Equal(decoded, interpreted) {
		for i := range decoded {
			if decoded[i] != interpreted[i] {
				t.Fatalf("first divergence at byte %d (slot %d): decoded %d, interpreted %d",
					i, i/(32*4), decoded[i], interpreted[i])
			}
		}
	}
}

// The interpreted copy must actually route ALU instructions through the
// generic path while leaving the original specialized, otherwise
// TestDecodedMatchesInterpreted compares the decoded executor against
// itself.
func TestInterpretedCopyUsesGenericALU(t *testing.T) {
	k := opsCoverageKernel(t)
	ic := interpretedCopy(k)
	specialized := 0
	for i := range k.prog {
		d, g := &k.prog[i], &ic.prog[i]
		if d.Class != DClassALU && d.Class != DClassSFU {
			continue
		}
		if d.alu != aluGeneric {
			specialized++
		}
		if g.alu != aluGeneric {
			t.Fatalf("instr %d (%v): interpreted copy kept kind %d", i, d.In.Op, g.alu)
		}
	}
	if specialized == 0 {
		t.Fatal("the coverage kernel decodes no specialized ALU executor")
	}
}

// The decoded program must be cached per kernel, not per warp: every warp
// of a kernel shares the same backing array.
func TestDecodedProgramCachedPerKernel(t *testing.T) {
	b := NewBuilder("cache")
	out := b.Param("out", U64)
	r := b.Reg()
	b.Mov(U32, r, Imm(1))
	b.St(Global, 32, R(out), []Operand{R(r)})
	b.Exit()
	k := b.MustBuild()
	env := &Env{Global: NewFlatMemory(64), GridDim: D1(1), BlockDim: D1(64), Clock: func() uint64 { return 0 }}
	w0, err := NewWarp(k, env, 0, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWarp(k, env, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if &w0.prog[0] != &w1.prog[0] {
		t.Error("warps of one kernel should share the decoded program")
	}
	if &w0.prog[0] != &k.Program()[0] {
		t.Error("warp program should alias the kernel's cache")
	}
}

// Branch targets are pre-resolved at decode; a hand-assembled kernel with
// a bad label must still error cleanly at execution.
func TestDecodedBranchTargets(t *testing.T) {
	b := NewBuilder("bra")
	out := b.Param("out", U64)
	r := b.Reg()
	b.Mov(U32, r, Imm(7))
	b.Bra("skip")
	b.Mov(U32, r, Imm(9)) // skipped
	b.Label("skip")
	b.St(Global, 32, R(out), []Operand{R(r)})
	b.Exit()
	k := b.MustBuild()
	mem := NewFlatMemory(256)
	if err := RunGrid(k, mem, D1(1), D1(32), []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if got := u32At(mem, 0); got != 7 {
		t.Errorf("branch skipped wrong path: got %d, want 7", got)
	}

	// Hand-assembled kernel branching to a label that does not exist.
	bad := &Kernel{
		Name:    "badbra",
		NumRegs: 1,
		Labels:  map[string]int{},
		Instrs:  []Instr{{Op: OpBra, Target: "nowhere"}},
	}
	env := &Env{Global: NewFlatMemory(64), GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(bad, env, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err == nil {
		t.Error("branch to unknown label should error")
	}
}

// aluShape is one ALU instruction form for FuzzDecodedALUMatchesGeneric:
// opcode, type, cvt source type and source count.
type aluShape struct {
	op   Opcode
	typ  Type
	src  Type
	nsrc int
}

// aluShapes covers every specialized aluKind, and every cvt pair with a
// direct conversion function.
var aluShapes = []aluShape{
	{OpMov, U32, 0, 1}, {OpMov, U64, 0, 1}, {OpMov, F16, 0, 1},
	{OpAdd, U32, 0, 2}, {OpAdd, U64, 0, 2}, {OpAdd, S32, 0, 2}, {OpAdd, F32, 0, 2},
	{OpSub, U32, 0, 2}, {OpSub, U64, 0, 2}, {OpSub, S32, 0, 2}, {OpSub, F32, 0, 2},
	{OpMul, U32, 0, 2}, {OpMul, U64, 0, 2}, {OpMul, S32, 0, 2}, {OpMul, F32, 0, 2},
	{OpMulWide, U64, 0, 2},
	{OpMad, U32, 0, 3}, {OpMad, S32, 0, 3}, {OpMad, U64, 0, 3}, {OpMad, F32, 0, 3}, {OpMad, F16X2, 0, 3},
	{OpAnd, U32, 0, 2}, {OpAnd, U64, 0, 2}, {OpOr, U32, 0, 2}, {OpXor, U64, 0, 2},
	{OpShl, U32, 0, 2}, {OpShl, U64, 0, 2}, {OpShr, U32, 0, 2}, {OpShr, U64, 0, 2}, {OpShr, S32, 0, 2},
	{OpSetp, U32, 0, 2}, {OpSetp, S32, 0, 2}, {OpSetp, U64, 0, 2}, {OpSetp, F32, 0, 2},
	{OpSelp, U32, 0, 3}, {OpSelp, U64, 0, 3},
	{OpCvt, U32, U32, 1}, {OpCvt, F16, F16, 1}, {OpCvt, U64, U32, 1}, {OpCvt, U64, S32, 1},
	{OpCvt, U32, U64, 1}, {OpCvt, S32, U64, 1}, {OpCvt, U32, S32, 1}, {OpCvt, S32, U32, 1},
	{OpCvt, F32, F16, 1}, {OpCvt, F16, F32, 1}, {OpCvt, F32, S32, 1}, {OpCvt, F32, U32, 1},
	{OpCvt, U32, F32, 1}, {OpCvt, S32, F32, 1}, {OpCvt, F16, S32, 1}, {OpCvt, F16, U32, 1},
}

// FuzzDecodedALUMatchesGeneric runs each specialized warp-wide ALU
// executor against the per-lane interpreter (execALU via dALUGeneric) on
// the same decoded instruction: random operand bits on all 32 lanes, a
// random guard mask and polarity, register or immediate sources, and an
// optional destination that aliases a source. Registers must match bit
// for bit. Register layout: r0 destination, r1–r3 sources, r4 guard.
func FuzzDecodedALUMatchesGeneric(f *testing.F) {
	covered := map[aluKind]bool{}
	for _, s := range aluShapes {
		k, _, _ := aluKindFor(&Instr{Op: s.op, Type: s.typ, SrcType: s.src})
		if k == aluGeneric {
			f.Fatalf("shape %+v decodes to the generic path", s)
		}
		covered[k] = true
	}
	for k := aluGeneric + 1; k < nALUKinds; k++ {
		if !covered[k] {
			f.Fatalf("aluKind %d has no fuzz shape", k)
		}
	}

	const (
		f16NaN   = 0x7e00
		f16SNaN  = 0x7c01
		f32NaN   = 0x7fc00000
		s32Max   = 0x7fffffff
		s32Min   = 0x80000000
		u64Max   = ^uint64(0)
		allLanes = ^uint32(0)
	)
	shapeOf := func(op Opcode, typ, src Type) uint8 {
		for i, s := range aluShapes {
			if s.op == op && s.typ == typ && s.src == src {
				return uint8(i)
			}
		}
		f.Fatalf("no fuzz shape %v.%v", op, typ)
		return 0
	}
	for i := range aluShapes {
		f.Add(uint8(i), uint8(0), uint8(0), allLanes, uint64(3), uint64(5), uint64(7), int64(i))
	}
	// f16/f16x2 NaNs through mad.f16x2 and the f16 conversions.
	f.Add(shapeOf(OpMad, F16X2, 0), uint8(0), uint8(0), allLanes,
		uint64(f16NaN<<16|f16SNaN), uint64(0x3c00_3c00), uint64(f16NaN), int64(1))
	f.Add(shapeOf(OpCvt, F32, F16), uint8(0), uint8(0), uint32(0x0f0f0f0f), uint64(f16SNaN), uint64(0), uint64(0), int64(2))
	f.Add(shapeOf(OpCvt, F16, F32), uint8(0), uint8(0), allLanes, uint64(f32NaN), uint64(0), uint64(0), int64(3))
	// f32 NaN compares.
	f.Add(shapeOf(OpSetp, F32, 0), uint8(CmpNE), uint8(0), allLanes, uint64(f32NaN), uint64(f32NaN), uint64(0), int64(4))
	// Signed overflow: add/sub/mul/mad at the s32 range ends, arithmetic
	// shift of the minimum, and u64 wrap with the destination aliased.
	f.Add(shapeOf(OpAdd, S32, 0), uint8(0), uint8(0), allLanes, uint64(s32Max), uint64(1), uint64(0), int64(5))
	f.Add(shapeOf(OpSub, S32, 0), uint8(0), uint8(0), allLanes, uint64(s32Min), uint64(1), uint64(0), int64(6))
	f.Add(shapeOf(OpMul, S32, 0), uint8(0), uint8(0b10), allLanes, uint64(s32Min), u64Max, uint64(0), int64(7))
	f.Add(shapeOf(OpMad, S32, 0), uint8(0), uint8(0), uint32(0xaaaaaaaa),
		uint64(s32Max), uint64(s32Max), uint64(s32Max), int64(8))
	f.Add(shapeOf(OpShr, S32, 0), uint8(0), uint8(0b10), allLanes, uint64(s32Min), uint64(31), uint64(0), int64(9))
	f.Add(shapeOf(OpAdd, U64, 0), uint8(0), uint8(0b100000), allLanes, u64Max, uint64(1), uint64(0), int64(10))

	f.Fuzz(func(t *testing.T, shape, cmp, flags uint8, guard uint32, a, b, c uint64, seed int64) {
		s := aluShapes[int(shape)%len(aluShapes)]
		in := &Instr{Op: s.op, Type: s.typ, SrcType: s.src, Cmp: CmpOp(int(cmp) % 6), Dst: []Reg{{ID: 0}}}
		fuzz := [3]uint64{a, b, c}
		for i := 0; i < s.nsrc; i++ {
			// flags bits 0–2: source i is an immediate.
			if flags&(1<<i) != 0 {
				in.Src = append(in.Src, Imm(fuzz[i]))
			} else {
				in.Src = append(in.Src, R(Reg{ID: 1 + i}))
			}
		}
		if flags&(1<<3) == 0 { // bit 3: unguarded
			in.Pred, in.PNeg = &Reg{ID: 4}, flags&(1<<4) != 0
		}
		if flags&(1<<5) != 0 { // bit 5: destination aliases source 0's register
			in.Dst[0] = Reg{ID: 1}
		}
		k := &Kernel{Name: "alufuzz", NumRegs: 5, Instrs: []Instr{*in}}
		var d DInstr
		decodeInstr(k, &k.Instrs[0], &d)
		if d.alu == aluGeneric {
			t.Fatalf("shape %+v decoded to the generic path", s)
		}

		rng := rand.New(rand.NewSource(seed))
		regs := make([]uint64, 32*k.NumRegs)
		for lane := 0; lane < 32; lane++ {
			r := regs[lane*k.NumRegs:]
			r[0] = rng.Uint64()
			for i := range fuzz {
				// Every fourth lane carries the fuzzed bits exactly;
				// the rest draw fresh 64-bit patterns.
				if lane%4 == 0 {
					r[1+i] = fuzz[i]
				} else {
					r[1+i] = rng.Uint64()
				}
			}
			r[4] = uint64(guard >> lane & 1)
		}
		run := func(kind aluKind) ([]uint64, error) {
			w := &Warp{Kernel: k, Env: &Env{GridDim: D1(1), BlockDim: D1(32)}, nLanes: 32}
			for i := range w.Active {
				w.Active[i] = true
			}
			w.regs = append([]uint64(nil), regs...)
			err := aluTable[kind](w, &d)
			return w.regs, err
		}
		got, gotErr := run(d.alu)
		want, wantErr := run(aluGeneric)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%v %v: decoded error %v, generic error %v", s.op, s.typ, gotErr, wantErr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v.%v (kind %d, flags %#x): lane %d r%d = %#x, generic %#x",
					s.op, s.typ, d.alu, flags, i/k.NumRegs, i%k.NumRegs, got[i], want[i])
			}
		}
	})
}
