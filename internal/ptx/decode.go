package ptx

import (
	"math"

	"repro/internal/fp16"
)

// The decoded-instruction cache. Interpreting an Instr re-classifies its
// operand kinds, register indices and (op, type) pair on every dynamic
// execution — per warp, per lane — which dominates SIMT GEMM simulation
// (the fig17 bottleneck). Decoding resolves all of that once per static
// instruction into a flat DInstr: operands become pre-resolved register
// indices or immediates, the guard predicate becomes a register index,
// branch targets become instruction indexes, and the ALU (op, type)
// switch chains collapse into an index into a dispatch table of
// specialized warp-wide executors. The decoded program is cached on the
// Kernel — one decode per kernel, shared by every warp of every launch,
// never per warp — and is immutable after construction, which makes the
// cache safe under the parallel experiment engine's worker pools.

// DClass is the coarse execution class of a decoded instruction. The
// timing simulator dispatches its issue/unit decisions on the class
// instead of re-switching on Opcode every scheduler visit.
type DClass uint8

const (
	DClassALU DClass = iota
	DClassSFU        // div/rem: issues on the special-function unit
	DClassLd
	DClassSt
	DClassBar
	DClassBra
	DClassExit
	DClassWmmaLoad
	DClassWmmaStore
	DClassWmmaMMA
)

// srcOp is a pre-resolved source operand: the Operand's discriminated
// union flattened so the hot register path is a single array index.
type srcOp struct {
	kind OperandKind
	reg  int32
	sreg SReg
	imm  uint64
}

// DInstr is the decoded, execution-ready form of one Instr. In points
// back to the source instruction for the attributes execution does not
// need per lane (wmma mappings, timing configuration, diagnostics).
// Decoded programs are cached per kernel and shared by every warp and
// every concurrent simulator, so the type is frozen: after decodeInstr
// returns, nothing may write its fields.
//
//simlint:frozen
type DInstr struct {
	In    *Instr
	Class DClass

	alu    aluKind
	shape  srcShape // two-source operand shape for the dBin fast paths
	cmp    CmpOp    // comparison operator (setp)
	mask   uint64   // destination truncation mask for integer/bitwise ops
	cvtFn  func(uint64) uint64
	dstID  int32 // first destination register, -1 if none
	predID int32 // guard predicate register, -1 = unguarded
	pneg   bool
	srcs   []srcOp
	dsts   []int32 // all destination registers, in Instr.Dst order
	sb     []int32 // deduplicated scoreboard registers
	// The packed scoreboard set: sbMask holds the registers of sb with
	// IDs < 64 as a bitmask, sbWide the (rare) spill of larger IDs. The
	// timing model's hazard screen — and the issue-time hazard-clear
	// computation that parks blocked warps straight into the wake heap —
	// walk the mask's set bits instead of ranging the slice.
	sbMask uint64
	sbWide []int32
	target int32 // pre-resolved branch target index, -1 = unresolved

	membytes int32 // ld/st access bytes (wmma: fragment element bytes)
	words    int32 // ld/st 32-bit word count
	fragA    int32 // wmma.mma A-fragment length
	fragB    int32 // wmma.mma B-fragment length

	// Fragment plans for the batched wmma path (see wmma_batch.go):
	// wplan decodes In.WMap for wmma.load/store; wA/wB/wC/wD decode the
	// four wmma.mma mappings. nil keeps the per-lane path (missing
	// mapping, non-uniform fragment structure, or non-register mma
	// operands).
	wplan          *fragPlan
	wA, wB, wC, wD *fragPlan

	// ld/st address-shape classification for the batched access path:
	// the static state space (Generic resolves per execution) and the
	// address register when the base operand is a plain register
	// (-1 for immediate or special-register bases).
	space   Space
	addrReg int32
}

// ScoreboardRegs returns the deduplicated register IDs the instruction
// reads or writes, precomputed at decode time for the timing model's
// RAW/WAW hazard check.
func (d *DInstr) ScoreboardRegs() []int32 { return d.sb }

// ScoreboardSet returns the packed form of ScoreboardRegs: a bitmask of
// the register IDs below 64 plus the spill slice of larger IDs (nil for
// the kernels this repository generates, which stay under 64 virtual
// registers). Hazard screens iterate the mask's set bits — one
// TrailingZeros per register, no slice header chase.
func (d *DInstr) ScoreboardSet() (mask uint64, wide []int32) { return d.sbMask, d.sbWide }

// DstRegs returns the destination register IDs, in declaration order.
func (d *DInstr) DstRegs() []int32 { return d.dsts }

// decodeKernel builds the decoded program of a kernel.
func decodeKernel(k *Kernel) []DInstr {
	prog := make([]DInstr, len(k.Instrs))
	for i := range k.Instrs {
		decodeInstr(k, &k.Instrs[i], &prog[i])
	}
	return prog
}

// decodeInstr populates one decoded instruction in place; the sole
// member of DInstr's frozen constructor set.
//
//simlint:ctor
func decodeInstr(k *Kernel, in *Instr, d *DInstr) {
	d.In = in
	d.Class = classOf(in.Op)
	d.cmp = in.Cmp
	d.dstID, d.predID, d.target = -1, -1, -1
	if len(in.Dst) > 0 {
		d.dstID = int32(in.Dst[0].ID)
	}
	if in.Pred != nil {
		d.predID = int32(in.Pred.ID)
		d.pneg = in.PNeg
	}
	d.srcs = make([]srcOp, len(in.Src))
	for i, o := range in.Src {
		d.srcs[i] = srcOp{kind: o.Kind, reg: int32(o.Reg.ID), sreg: o.SReg, imm: o.Imm}
	}
	switch len(d.srcs) {
	case 2:
		switch {
		case d.srcs[0].kind == OperandReg && d.srcs[1].kind == OperandReg:
			d.shape = srcRR
		case d.srcs[0].kind == OperandReg && d.srcs[1].kind == OperandImm:
			d.shape = srcRI
		}
	case 3:
		if d.srcs[0].kind == OperandReg && d.srcs[1].kind == OperandReg && d.srcs[2].kind == OperandReg {
			d.shape = srcRRR
		}
	}
	d.dsts = make([]int32, len(in.Dst))
	for i, r := range in.Dst {
		d.dsts[i] = int32(r.ID)
	}
	d.sb = appendScoreboardRegs(nil, in)
	for _, id := range d.sb {
		if id < 64 {
			d.sbMask |= 1 << uint(id)
		} else {
			d.sbWide = append(d.sbWide, id)
		}
	}

	switch in.Op {
	case OpBra:
		if t, ok := k.Labels[in.Target]; ok {
			d.target = int32(t)
		}
	case OpLd, OpSt:
		d.membytes = int32(in.Width / 8)
		w := int32(in.Width / 32)
		if w == 0 {
			w = 1
		}
		d.words = w
		d.space = in.Space
		d.addrReg = -1
		if len(in.Src) > 0 && in.Src[0].Kind == OperandReg {
			d.addrReg = int32(in.Src[0].Reg.ID)
		}
	case OpWmmaLoad, OpWmmaStore:
		d.membytes = int32(cuda4BitBytes(in.WMap.Elem))
		d.wplan = planFragment(in.WMap)
	case OpWmmaMMA:
		d.fragA = int32(in.WMapA.FragmentLen())
		d.fragB = int32(in.WMapB.FragmentLen())
		// The batched gather indexes fragment source registers directly,
		// so it requires the all-register operand shape Builder emits.
		regs := true
		for _, o := range in.Src {
			if o.Kind != OperandReg {
				regs = false
				break
			}
		}
		if regs {
			d.wA = planFragment(in.WMapA)
			d.wB = planFragment(in.WMapB)
			d.wC = planFragment(in.WMap)
			d.wD = planFragment(in.WMapD)
		}
	}

	if d.Class == DClassALU || d.Class == DClassSFU {
		d.alu, d.mask, d.cvtFn = aluKindFor(in)
	}
}

func classOf(op Opcode) DClass {
	switch op {
	case OpLd:
		return DClassLd
	case OpSt:
		return DClassSt
	case OpBar:
		return DClassBar
	case OpBra:
		return DClassBra
	case OpExit:
		return DClassExit
	case OpWmmaLoad:
		return DClassWmmaLoad
	case OpWmmaStore:
		return DClassWmmaStore
	case OpWmmaMMA:
		return DClassWmmaMMA
	case OpDiv, OpRem:
		return DClassSFU
	default:
		return DClassALU
	}
}

// aluKind indexes the dispatch table of specialized warp-wide ALU
// executors. aluGeneric falls back to the per-lane interpreted path.
type aluKind uint8

const (
	aluGeneric aluKind = iota
	aluMov
	aluAddU32
	aluAddU64
	aluAddS32
	aluAddF32
	aluSubU32
	aluSubU64
	aluSubS32
	aluSubF32
	aluMulU32
	aluMulU64
	aluMulS32
	aluMulF32
	aluMulWide
	aluMadU32
	aluMadS32
	aluMadU64
	aluMadF32
	aluMadF16X2
	aluBitAnd
	aluBitOr
	aluBitXor
	aluShl
	aluShrU
	aluShrS32
	aluSetpU32
	aluSetpS32
	aluSetpU64
	aluSetpF32
	aluSelp
	aluCvt
	nALUKinds
)

// aluKindFor classifies an ALU instruction once, at decode time. It
// returns the dispatch index plus the precomputed truncation mask and
// conversion function the specialized executors need.
func aluKindFor(in *Instr) (aluKind, uint64, func(uint64) uint64) {
	mask := maskOf(in.Type)
	switch in.Op {
	case OpMov:
		if in.Type != Pred {
			return aluMov, mask, nil
		}
	case OpAdd:
		switch in.Type {
		case U32:
			return aluAddU32, mask, nil
		case U64:
			return aluAddU64, mask, nil
		case S32:
			return aluAddS32, mask, nil
		case F32:
			return aluAddF32, mask, nil
		}
	case OpSub:
		switch in.Type {
		case U32:
			return aluSubU32, mask, nil
		case U64:
			return aluSubU64, mask, nil
		case S32:
			return aluSubS32, mask, nil
		case F32:
			return aluSubF32, mask, nil
		}
	case OpMul:
		switch in.Type {
		case U32:
			return aluMulU32, mask, nil
		case U64:
			return aluMulU64, mask, nil
		case S32:
			return aluMulS32, mask, nil
		case F32:
			return aluMulF32, mask, nil
		}
	case OpMulWide:
		return aluMulWide, mask, nil
	case OpMad:
		switch in.Type {
		case U32:
			return aluMadU32, mask, nil
		case S32:
			return aluMadS32, mask, nil
		case U64:
			return aluMadU64, mask, nil
		case F32:
			return aluMadF32, mask, nil
		case F16X2:
			return aluMadF16X2, mask, nil
		}
	case OpAnd:
		if in.Type != Pred {
			return aluBitAnd, mask, nil
		}
	case OpOr:
		if in.Type != Pred {
			return aluBitOr, mask, nil
		}
	case OpXor:
		if in.Type != Pred {
			return aluBitXor, mask, nil
		}
	case OpShl:
		if in.Type != Pred {
			return aluShl, mask, nil
		}
	case OpShr:
		if in.Type == S32 {
			return aluShrS32, mask, nil
		}
		if in.Type != Pred {
			return aluShrU, mask, nil
		}
	case OpSetp:
		switch in.Type {
		case U32:
			return aluSetpU32, mask, nil
		case S32:
			return aluSetpS32, mask, nil
		case U64:
			return aluSetpU64, mask, nil
		case F32:
			return aluSetpF32, mask, nil
		}
	case OpSelp:
		if in.Type != Pred {
			return aluSelp, mask, nil
		}
	case OpCvt:
		if fn := cvtFnFor(in.Type, in.SrcType); fn != nil {
			return aluCvt, mask, fn
		}
	}
	return aluGeneric, mask, nil
}

// maskOf returns the destination truncation mask of a type; Pred has no
// plain mask (it normalizes to 0/1) and decodes to the generic path.
func maskOf(t Type) uint64 {
	switch t.Bits() {
	case 16:
		return 0xffff
	case 32:
		return 0xffffffff
	default:
		return ^uint64(0)
	}
}

// cvtFnFor resolves the conversion pair of a cvt to a direct function,
// mirroring convert's supported cases; nil falls back to the generic path
// (which also surfaces unsupported-pair errors at execution time).
func cvtFnFor(dst, src Type) func(uint64) uint64 {
	switch {
	case dst == src:
		m := maskOf(dst)
		if dst == Pred {
			return nil
		}
		return func(v uint64) uint64 { return v & m }
	case dst == U64 && src == U32:
		return func(v uint64) uint64 { return v & 0xffffffff }
	case dst == U64 && src == S32:
		return func(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }
	case (dst == U32 || dst == S32) && src == U64,
		dst == U32 && src == S32, dst == S32 && src == U32:
		return func(v uint64) uint64 { return v & 0xffffffff }
	case dst == F32 && src == F16:
		return func(v uint64) uint64 { return bitsF32(h16(v).Float32()) }
	case dst == F16 && src == F32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat32(f32bits(v))) }
	case dst == F32 && src == S32:
		return func(v uint64) uint64 { return bitsF32(float32(int32(uint32(v)))) }
	case dst == F32 && src == U32:
		return func(v uint64) uint64 { return bitsF32(float32(uint32(v))) }
	case (dst == U32 || dst == S32) && src == F32:
		return func(v uint64) uint64 { return uint64(uint32(int32(f32bits(v)))) }
	case dst == F16 && src == S32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat64(float64(int32(uint32(v))))) }
	case dst == F16 && src == U32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat64(float64(uint32(v)))) }
	}
	return nil
}

// laneOn reports whether the lane executes under the decoded guard. base
// is the lane's precomputed register-file offset.
func (d *DInstr) laneOn(w *Warp, base, lane int) bool {
	if !w.Active[lane] {
		return false
	}
	if d.predID < 0 {
		return true
	}
	return (w.regs[base+int(d.predID)] != 0) != d.pneg
}

// val fetches a pre-resolved source operand. The register path must stay
// small enough to inline into the warp-wide executor loops; immediates
// and special registers take the outlined slow path, as in the
// interpreted executor.
func (d *DInstr) val(w *Warp, base, lane int, s *srcOp) uint64 {
	if s.kind == OperandReg {
		return w.regs[base+int(s.reg)]
	}
	return valSlow(w, lane, s)
}

//go:noinline
func valSlow(w *Warp, lane int, s *srcOp) uint64 {
	if s.kind == OperandImm {
		return s.imm
	}
	return w.sreg(lane, s.sreg)
}

// aluTable is the decoded ALU dispatch: one specialized warp-wide
// executor per (op, type) pair the generated kernels use. Entries left
// nil route through dALUGeneric (aluKindFor never returns them).
var aluTable = [nALUKinds]func(*Warp, *DInstr) error{
	aluGeneric: dALUGeneric,
	aluMov:     dMov,
	aluAddU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return (x + y) & 0xffffffff })
		return nil
	},
	aluAddU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x + y })
		return nil
	},
	aluAddS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) + int32(uint32(y))))
		})
		return nil
	},
	aluAddF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) + f32bits(y)) })
		return nil
	},
	aluSubU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return (x - y) & 0xffffffff })
		return nil
	},
	aluSubU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x - y })
		return nil
	},
	aluSubS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) - int32(uint32(y))))
		})
		return nil
	},
	aluSubF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) - f32bits(y)) })
		return nil
	},
	aluMulU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return ((x & 0xffffffff) * (y & 0xffffffff)) & 0xffffffff })
		return nil
	},
	aluMulU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x * y })
		return nil
	},
	aluMulS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) * int32(uint32(y))))
		})
		return nil
	},
	aluMulF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) * f32bits(y)) })
		return nil
	},
	aluMulWide: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return uint64(uint32(x)) * uint64(uint32(y)) })
		return nil
	},
	aluMadU32:   dMadU32,
	aluMadS32:   dMadS32,
	aluMadU64:   dMadU64,
	aluMadF32:   dMadF32,
	aluMadF16X2: dMadF16X2,
	aluBitAnd: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x & y) & m })
		return nil
	},
	aluBitOr: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x | y) & m })
		return nil
	},
	aluBitXor: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x ^ y) & m })
		return nil
	},
	aluShl: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x << (y & 63)) & m })
		return nil
	},
	aluShrU: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x >> (y & 63)) & m })
		return nil
	},
	aluShrS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) >> (y & 31)))
		})
		return nil
	},
	aluSetpU32: func(w *Warp, d *DInstr) error {
		dSetp(w, d, func(x, y uint64) int { return cmpOrd(x&0xffffffff, y&0xffffffff) })
		return nil
	},
	aluSetpS32: func(w *Warp, d *DInstr) error {
		dSetp(w, d, func(x, y uint64) int { return cmpOrd(int32(uint32(x)), int32(uint32(y))) })
		return nil
	},
	aluSetpU64: func(w *Warp, d *DInstr) error {
		dSetp(w, d, cmpOrd[uint64])
		return nil
	},
	aluSetpF32: dSetpF32,
	aluSelp:    dSelp,
	aluCvt:     dCvt,
}

// dALUGeneric is the interpreted fallback: the per-lane execALU path for
// opcode/type pairs without a specialized executor.
func dALUGeneric(w *Warp, d *DInstr) error {
	in := d.In
	nr := w.Kernel.NumRegs
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		if err := w.execALU(lane, in); err != nil {
			return err
		}
	}
	return nil
}

func dMov(w *Warp, d *DInstr) error {
	nr := w.Kernel.NumRegs
	s := &d.srcs[0]
	dst, m := int(d.dstID), d.mask
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		w.regs[base+dst] = d.val(w, base, lane, s) & m
	}
	return nil
}

// srcShape classifies a two-source instruction's operand kinds at decode
// time so the hot executors can index the register file directly instead
// of re-dispatching on operand kind per lane per source.
type srcShape uint8

const (
	srcGen srcShape = iota // anything involving special registers, or <2 sources
	srcRR                  // register, register
	srcRI                  // register, immediate
	srcRRR                 // register, register, register (mad)
)

// dBin runs a warp-wide two-source ALU op; f replicates the interpreted
// arithmetic exactly (including destination truncation). The dominant
// operand shapes — reg-reg and reg-imm, classified at decode time — skip
// the per-lane indirect operand resolution of val entirely.
func dBin(w *Warp, d *DInstr, f func(x, y uint64) uint64) {
	nr := w.Kernel.NumRegs
	a, b := &d.srcs[0], &d.srcs[1]
	dst := int(d.dstID)
	full := d.predID < 0 && w.nLanes == 32 // no per-lane guard needed
	switch d.shape {
	case srcRR:
		ra, rb := int(a.reg), int(b.reg)
		if full {
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				w.regs[base+dst] = f(w.regs[base+ra], w.regs[base+rb])
			}
			return
		}
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			if !d.laneOn(w, base, lane) {
				continue
			}
			w.regs[base+dst] = f(w.regs[base+ra], w.regs[base+rb])
		}
	case srcRI:
		ra, imm := int(a.reg), b.imm
		if full {
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				w.regs[base+dst] = f(w.regs[base+ra], imm)
			}
			return
		}
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			if !d.laneOn(w, base, lane) {
				continue
			}
			w.regs[base+dst] = f(w.regs[base+ra], imm)
		}
	default:
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			if !d.laneOn(w, base, lane) {
				continue
			}
			w.regs[base+dst] = f(d.val(w, base, lane, a), d.val(w, base, lane, b))
		}
	}
}

// dTern runs a warp-wide three-source ALU op; f replicates the
// interpreted arithmetic exactly. The dominant operand shape — three
// registers, classified at decode time (srcRRR) — indexes the register
// file directly, which matters most for the mad executors at the core of
// every GEMM inner loop.
func dTern(w *Warp, d *DInstr, f func(x, y, z uint64) uint64) {
	nr := w.Kernel.NumRegs
	a, b, c := &d.srcs[0], &d.srcs[1], &d.srcs[2]
	dst := int(d.dstID)
	if d.shape == srcRRR {
		ra, rb, rc := int(a.reg), int(b.reg), int(c.reg)
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			if !d.laneOn(w, base, lane) {
				continue
			}
			w.regs[base+dst] = f(w.regs[base+ra], w.regs[base+rb], w.regs[base+rc])
		}
		return
	}
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		w.regs[base+dst] = f(d.val(w, base, lane, a), d.val(w, base, lane, b), d.val(w, base, lane, c))
	}
}

func dMadU32(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 { return (x*y + z) & 0xffffffff })
	return nil
}

func dMadS32(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 {
		return uint64(uint32(int32(uint32(x))*int32(uint32(y)) + int32(uint32(z))))
	})
	return nil
}

func dMadU64(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 { return x*y + z })
	return nil
}

// dMadF32 and dMadF16X2 — the inner-loop instruction of the FP32 and
// packed-half SIMT GEMMs — get fully specialized loops: direct register
// indexing for the srcRRR shape and no per-lane guard when the warp is
// fully active and unguarded, with math.FMA compiling to the hardware
// fused multiply-add.
func dMadF32(w *Warp, d *DInstr) error {
	if d.shape != srcRRR {
		dTern(w, d, func(x, y, z uint64) uint64 {
			return bitsF32(float32(math.FMA(float64(f32bits(x)), float64(f32bits(y)), float64(f32bits(z)))))
		})
		return nil
	}
	nr := w.Kernel.NumRegs
	ra, rb, rc := int(d.srcs[0].reg), int(d.srcs[1].reg), int(d.srcs[2].reg)
	dst := int(d.dstID)
	if d.predID < 0 && w.nLanes == 32 {
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			x, y, z := w.regs[base+ra], w.regs[base+rb], w.regs[base+rc]
			// fma.rn.f32: a single rounding.
			w.regs[base+dst] = bitsF32(float32(math.FMA(float64(f32bits(x)), float64(f32bits(y)), float64(f32bits(z)))))
		}
		return nil
	}
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		x, y, z := w.regs[base+ra], w.regs[base+rb], w.regs[base+rc]
		w.regs[base+dst] = bitsF32(float32(math.FMA(float64(f32bits(x)), float64(f32bits(y)), float64(f32bits(z)))))
	}
	return nil
}

func dMadF16X2(w *Warp, d *DInstr) error {
	if d.shape != srcRRR {
		dTern(w, d, madF16X2)
		return nil
	}
	nr := w.Kernel.NumRegs
	ra, rb, rc := int(d.srcs[0].reg), int(d.srcs[1].reg), int(d.srcs[2].reg)
	dst := int(d.dstID)
	if d.predID < 0 && w.nLanes == 32 {
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			w.regs[base+dst] = madF16X2(w.regs[base+ra], w.regs[base+rb], w.regs[base+rc])
		}
		return nil
	}
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		w.regs[base+dst] = madF16X2(w.regs[base+ra], w.regs[base+rb], w.regs[base+rc])
	}
	return nil
}

// madF16X2 is one lane's packed-half fused multiply-add.
func madF16X2(x, y, z uint64) uint64 {
	lo := bitsH16(fp16.FMA(h16(x&0xffff), h16(y&0xffff), h16(z&0xffff)))
	hi := bitsH16(fp16.FMA(h16(x>>16&0xffff), h16(y>>16&0xffff), h16(z>>16&0xffff)))
	return hi<<16 | lo
}

// dSetp runs a warp-wide integer setp; ord returns the three-way
// comparison of the two raw source values.
func dSetp(w *Warp, d *DInstr, ord func(x, y uint64) int) {
	nr := w.Kernel.NumRegs
	a, b := &d.srcs[0], &d.srcs[1]
	dst, cmp := int(d.dstID), d.cmp
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		c := ord(d.val(w, base, lane, a), d.val(w, base, lane, b))
		w.regs[base+dst] = predBit(cmp, c)
	}
}

func dSetpF32(w *Warp, d *DInstr) error {
	nr := w.Kernel.NumRegs
	a, b := &d.srcs[0], &d.srcs[1]
	dst, cmp := int(d.dstID), d.cmp
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		x, y := f32bits(d.val(w, base, lane, a)), f32bits(d.val(w, base, lane, b))
		if x != x || y != y { // NaN: only NE holds
			if cmp == CmpNE {
				w.regs[base+dst] = 1
			} else {
				w.regs[base+dst] = 0
			}
			continue
		}
		w.regs[base+dst] = predBit(cmp, cmpOrd(x, y))
	}
	return nil
}

// predBit converts a three-way comparison into the setp predicate value.
func predBit(cmp CmpOp, c int) uint64 {
	var ok bool
	switch cmp {
	case CmpEQ:
		ok = c == 0
	case CmpNE:
		ok = c != 0
	case CmpLT:
		ok = c < 0
	case CmpLE:
		ok = c <= 0
	case CmpGT:
		ok = c > 0
	default:
		ok = c >= 0
	}
	if ok {
		return 1
	}
	return 0
}

func dSelp(w *Warp, d *DInstr) error {
	nr := w.Kernel.NumRegs
	a, b, p := &d.srcs[0], &d.srcs[1], &d.srcs[2]
	dst, m := int(d.dstID), d.mask
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		if d.val(w, base, lane, p) != 0 {
			w.regs[base+dst] = d.val(w, base, lane, a) & m
		} else {
			w.regs[base+dst] = d.val(w, base, lane, b) & m
		}
	}
	return nil
}

func dCvt(w *Warp, d *DInstr) error {
	nr := w.Kernel.NumRegs
	s := &d.srcs[0]
	dst, fn := int(d.dstID), d.cvtFn
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		w.regs[base+dst] = fn(d.val(w, base, lane, s))
	}
	return nil
}
