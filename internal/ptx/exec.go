package ptx

import (
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// Memory is the byte-addressable global store the executor reads and
// writes; internal/cuda provides the device-memory implementation.
type Memory interface {
	Read(addr uint64, buf []byte)
	Write(addr uint64, data []byte)
}

// Dim3 is a CUDA-style 3-component dimension.
type Dim3 struct{ X, Y, Z int }

// D1 builds a 1-D Dim3.
func D1(x int) Dim3 { return Dim3{x, 1, 1} }

// D2 builds a 2-D Dim3.
func D2(x, y int) Dim3 { return Dim3{x, y, 1} }

// Count returns the number of threads/blocks the dimension spans.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

// Env is the execution environment of one CTA: the memories it can reach
// and its position in the grid. Clock supplies the value of %clock; the
// timing simulator wires it to the SM cycle counter, and functional runs
// use a step counter.
type Env struct {
	Global   Memory
	Shared   []byte
	Clock    func() uint64
	GridDim  Dim3
	BlockDim Dim3
	CtaID    Dim3
}

// resolveSpace maps a generic address onto the shared window or global
// memory, like PTX generic addressing.
func (e *Env) resolveSpace(space Space, addr uint64) (Space, uint64) {
	if space == Shared {
		// Accept both window-relative offsets and generic addresses
		// (Builder.Shared hands out the latter).
		if addr >= SharedBase {
			addr -= SharedBase
		}
		return Shared, addr
	}
	if space == Generic && addr >= SharedBase && addr < SharedBase+uint64(len(e.Shared)) {
		return Shared, addr - SharedBase
	}
	if space == Generic {
		return Global, addr
	}
	return Global, addr
}

func (e *Env) read(space Space, addr uint64, buf []byte) {
	sp, a := e.resolveSpace(space, addr)
	if sp == Shared {
		copy(buf, e.Shared[a:a+uint64(len(buf))])
		return
	}
	e.Global.Read(a, buf)
}

func (e *Env) write(space Space, addr uint64, data []byte) {
	sp, a := e.resolveSpace(space, addr)
	if sp == Shared {
		copy(e.Shared[a:a+uint64(len(data))], data)
		return
	}
	e.Global.Write(a, data)
}

// Access is one memory access performed by an executed instruction, as the
// timing model's coalescer sees it.
type Access struct {
	Lane  int
	Addr  uint64 // post-resolution address (shared offsets are window-relative)
	Bits  int
	Space Space // Global or Shared after generic resolution
	Store bool
}

// Result reports the architectural effects of one executed instruction
// that the timing model needs. Memory accesses arrive on exactly one of
// two mutually exclusive paths: Batch holds the batched struct-of-arrays
// groups, Accesses the per-lane form, which only a wmma.load/store whose
// lanes disagree on fragment structure or resolved state space produces
// (see emitFragAccesses). Both alias per-warp scratch buffers: they are
// valid until the warp's next Step call, which is the synchronous
// consumption pattern of the timing model.
type Result struct {
	Instr    *Instr
	Accesses []Access
	Batch    []WarpAccess
	Barrier  bool
	Exited   bool
}

// Warp executes one warp of a CTA instruction by instruction.
type Warp struct {
	Kernel *Kernel
	Env    *Env
	ID     int // warp index within the CTA
	PC     int
	Exited bool
	// AtBarrier is set when the warp executed bar.sync and is waiting for
	// the rest of the CTA; the CTA driver clears it.
	AtBarrier bool
	Active    [32]bool
	nLanes    int
	regs      []uint64 // [lane*NumRegs + reg]
	// prog is the kernel's decoded-instruction cache (shared across all
	// warps of the kernel; see decode.go).
	prog []DInstr

	// Scratch buffers reused across Step calls so the hot execution path
	// stays allocation-free: staging buffers for loads/stores (membuf for
	// one wmma fragment element, bulk for a whole warp's contiguous
	// runs), the Result.Accesses and Result.Batch backing arrays, wmma
	// per-lane address lists, and the wmma piece list of the batched
	// frag path.
	membuf   [4]byte
	bulk     [512]byte // 32 lanes × 16 bytes
	accBuf   []Access
	batchBuf []WarpAccess
	addrBuf  []uint64
	pieceBuf []fragPiece
	tiles    [4]*tensor.Matrix // wmma.mma A/B/C/D tile scratch
	quantBuf []fp16.Float16    // wmma.mma operand quantization scratch
}

// NLanes returns the number of active lanes (fixed at construction:
// branches are warp-uniform, so the active set never changes).
func (w *Warp) NLanes() int { return w.nLanes }

// NewWarp builds warp id of a CTA, loading kernel arguments into the
// parameter registers of every lane. args must match the kernel's
// parameter list.
func NewWarp(k *Kernel, env *Env, id int, args []uint64) (*Warp, error) {
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("ptx: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	w := &Warp{Kernel: k, Env: env, ID: id}
	w.prog = k.prog
	if w.prog == nil {
		// Hand-assembled kernels (no Builder.Build pass) decode a private
		// program; built kernels share the per-kernel cache.
		w.prog = decodeKernel(k)
	}
	w.regs = make([]uint64, 32*k.NumRegs)
	nThreads := env.BlockDim.Count()
	for lane := 0; lane < 32; lane++ {
		linear := id*32 + lane
		if linear >= nThreads {
			continue
		}
		w.Active[lane] = true
		w.nLanes++
		for i, r := range k.ParamRegs {
			w.regs[lane*k.NumRegs+r.ID] = args[i]
		}
	}
	if w.nLanes == 0 {
		w.Exited = true
	}
	return w, nil
}

func (w *Warp) reg(lane int, r Reg) uint64       { return w.regs[lane*w.Kernel.NumRegs+r.ID] }
func (w *Warp) setReg(lane int, r Reg, v uint64) { w.regs[lane*w.Kernel.NumRegs+r.ID] = v }

// tid returns the 3-D thread index of a lane.
func (w *Warp) tid(lane int) Dim3 {
	linear := w.ID*32 + lane
	bd := w.Env.BlockDim
	return Dim3{
		X: linear % bd.X,
		Y: (linear / bd.X) % bd.Y,
		Z: linear / (bd.X * bd.Y),
	}
}

func (w *Warp) sreg(lane int, s SReg) uint64 {
	e := w.Env
	switch s {
	case SRegTidX:
		return uint64(w.tid(lane).X)
	case SRegTidY:
		return uint64(w.tid(lane).Y)
	case SRegTidZ:
		return uint64(w.tid(lane).Z)
	case SRegNTidX:
		return uint64(e.BlockDim.X)
	case SRegNTidY:
		return uint64(e.BlockDim.Y)
	case SRegNTidZ:
		return uint64(e.BlockDim.Z)
	case SRegCtaIDX:
		return uint64(e.CtaID.X)
	case SRegCtaIDY:
		return uint64(e.CtaID.Y)
	case SRegCtaIDZ:
		return uint64(e.CtaID.Z)
	case SRegNCtaIDX:
		return uint64(e.GridDim.X)
	case SRegNCtaIDY:
		return uint64(e.GridDim.Y)
	case SRegNCtaIDZ:
		return uint64(e.GridDim.Z)
	case SRegLaneID:
		return uint64(lane)
	case SRegWarpID:
		return uint64(w.ID)
	case SRegClock:
		return w.Env.Clock()
	}
	return 0
}

func (w *Warp) operand(lane int, o *Operand) uint64 {
	switch o.Kind {
	case OperandReg:
		return w.reg(lane, o.Reg)
	case OperandImm:
		return o.Imm
	default:
		return w.sreg(lane, o.SReg)
	}
}

// laneEnabled reports whether the lane executes the instruction under its
// guard predicate.
func (w *Warp) laneEnabled(lane int, in *Instr) bool {
	if !w.Active[lane] {
		return false
	}
	if in.Pred == nil {
		return true
	}
	p := w.reg(lane, *in.Pred) != 0
	if in.PNeg {
		return !p
	}
	return p
}

// Peek returns the instruction the warp will execute next, or nil if the
// warp has exited.
func (w *Warp) Peek() *Instr {
	if d := w.PeekD(); d != nil {
		return d.In
	}
	return nil
}

// PeekD returns the decoded form of the instruction the warp will execute
// next, or nil if the warp has exited. The timing model schedules on the
// decoded form (unit class, precomputed scoreboard registers) instead of
// re-classifying the Instr every cycle.
func (w *Warp) PeekD() *DInstr {
	if w.Exited || w.PC >= len(w.prog) {
		return nil
	}
	return &w.prog[w.PC]
}

// Step executes the next instruction and advances the PC. Branches must be
// warp-uniform over enabled lanes (the kernels in this repository use
// predication for per-lane conditionals); divergent branches are an error.
func (w *Warp) Step() (Result, error) {
	var res Result
	err := w.StepInto(&res)
	return res, err
}

// StepInto is Step writing into a caller-owned Result, so the hot
// issue loop moves no Result copies (the struct carries two slice
// headers and crosses two call boundaries per instruction otherwise).
// *res is fully overwritten.
func (w *Warp) StepInto(res *Result) error {
	err := w.step(res)
	if cap(res.Accesses) > cap(w.accBuf) {
		w.accBuf = res.Accesses[:0]
	}
	if cap(res.Batch) > cap(w.batchBuf) {
		w.batchBuf = res.Batch[:0]
	}
	return err
}

func (w *Warp) step(res *Result) error {
	d := w.PeekD()
	if d == nil {
		w.Exited = true
		*res = Result{Exited: true}
		return nil
	}
	in := d.In
	*res = Result{Instr: in, Accesses: w.accBuf[:0], Batch: w.batchBuf[:0]}

	switch d.Class {
	case DClassBra:
		taken, uniform := w.branchVote(d)
		if !uniform {
			return fmt.Errorf("ptx: divergent branch at %d in %s", w.PC, w.Kernel.Name)
		}
		if taken {
			if d.target < 0 {
				_, err := w.Kernel.TargetIndex(in.Target)
				return err
			}
			w.PC = int(d.target)
			return nil
		}
		w.PC++
		return nil
	case DClassExit:
		w.Exited = true
		res.Exited = true
		return nil
	case DClassBar:
		w.AtBarrier = true
		res.Barrier = true
		w.PC++
		return nil
	case DClassWmmaLoad:
		if err := w.execWmmaLoad(d, res); err != nil {
			return err
		}
		w.PC++
		return nil
	case DClassWmmaStore:
		if err := w.execWmmaStore(d, res); err != nil {
			return err
		}
		w.PC++
		return nil
	case DClassWmmaMMA:
		if err := w.execWmmaMMA(d); err != nil {
			return err
		}
		w.PC++
		return nil
	case DClassLd:
		w.execLoadBatched(d, res)
		w.PC++
		return nil
	case DClassSt:
		w.execStoreBatched(d, res)
		w.PC++
		return nil
	}

	// ALU and SFU classes: direct table-driven dispatch on the decoded
	// kind; aluGeneric is the per-lane interpreted fallback.
	if err := aluTable[d.alu](w, d); err != nil {
		return err
	}
	w.PC++
	return nil
}

// branchVote evaluates the branch guard across enabled lanes.
func (w *Warp) branchVote(d *DInstr) (taken, uniform bool) {
	if d.predID < 0 {
		return true, true
	}
	nr := w.Kernel.NumRegs
	pid := int(d.predID)
	first := true
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !w.Active[lane] {
			continue
		}
		p := (w.regs[base+pid] != 0) != d.pneg
		if first {
			taken, first = p, false
			continue
		}
		if p != taken {
			return false, false
		}
	}
	return taken, true
}

// srcVal fetches one source operand with the lane's register base
// precomputed. The register path must stay small enough to inline into
// the ALU lane loops; immediates and special registers take the outlined
// slow path.
func (w *Warp) srcVal(base, lane int, o *Operand) uint64 {
	if o.Kind == OperandReg {
		return w.regs[base+o.Reg.ID]
	}
	return w.srcValSlow(lane, o)
}

//go:noinline
func (w *Warp) srcValSlow(lane int, o *Operand) uint64 {
	if o.Kind == OperandImm {
		return o.Imm
	}
	return w.sreg(lane, o.SReg)
}

func (w *Warp) execALU(lane int, in *Instr) error {
	base := lane * w.Kernel.NumRegs
	get := func(i int) uint64 { return w.srcVal(base, lane, &in.Src[i]) }
	set := func(v uint64) { w.regs[base+in.Dst[0].ID] = v }

	switch in.Op {
	case OpMov:
		set(truncate(get(0), in.Type))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax:
		v, err := arith(in.Op, in.Type, get(0), get(1))
		if err != nil {
			return err
		}
		set(v)
	case OpMulWide:
		set(uint64(uint32(get(0))) * uint64(uint32(get(1))))
	case OpMad:
		v, err := mad(in.Type, get(0), get(1), get(2))
		if err != nil {
			return err
		}
		set(v)
	case OpAnd:
		set(truncate(get(0)&get(1), in.Type))
	case OpOr:
		set(truncate(get(0)|get(1), in.Type))
	case OpXor:
		set(truncate(get(0)^get(1), in.Type))
	case OpShl:
		set(truncate(get(0)<<(get(1)&63), in.Type))
	case OpShr:
		if in.Type == S32 {
			set(uint64(uint32(int32(uint32(get(0))) >> (get(1) & 31))))
		} else {
			set(truncate(get(0)>>(get(1)&63), in.Type))
		}
	case OpCvt:
		v, err := convert(in.Type, in.SrcType, get(0))
		if err != nil {
			return err
		}
		set(v)
	case OpSetp:
		ok, err := compare(in.Type, in.Cmp, get(0), get(1))
		if err != nil {
			return err
		}
		if ok {
			set(1)
		} else {
			set(0)
		}
	case OpSelp:
		if get(2) != 0 {
			set(truncate(get(0), in.Type))
		} else {
			set(truncate(get(1), in.Type))
		}
	default:
		return fmt.Errorf("ptx: unhandled opcode %d", in.Op)
	}
	return nil
}

func truncate(v uint64, t Type) uint64 {
	switch t.Bits() {
	case 16:
		return v & 0xffff
	case 32:
		return v & 0xffffffff
	case 1:
		if v != 0 {
			return 1
		}
		return 0
	}
	return v
}

func f32bits(v uint64) float32      { return math.Float32frombits(uint32(v)) }
func bitsF32(f float32) uint64      { return uint64(math.Float32bits(f)) }
func h16(v uint64) fp16.Float16     { return fp16.FromBits(uint16(v)) }
func bitsH16(h fp16.Float16) uint64 { return uint64(h.Bits()) }

func arith(op Opcode, t Type, a, b uint64) (uint64, error) {
	switch t {
	case U32, U64:
		x, y := a, b
		if t == U32 {
			x, y = a&0xffffffff, b&0xffffffff
		}
		var v uint64
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer division by zero")
			}
			v = x / y
		case OpRem:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer remainder by zero")
			}
			v = x % y
		case OpMin:
			v = min(x, y)
		case OpMax:
			v = max(x, y)
		}
		return truncate(v, t), nil
	case S32:
		x, y := int32(uint32(a)), int32(uint32(b))
		var v int32
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer division by zero")
			}
			v = x / y
		case OpRem:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer remainder by zero")
			}
			v = x % y
		case OpMin:
			v = min(x, y)
		case OpMax:
			v = max(x, y)
		}
		return uint64(uint32(v)), nil
	case F32:
		x, y := f32bits(a), f32bits(b)
		var v float32
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			v = x / y
		case OpMin:
			v = float32(math.Min(float64(x), float64(y)))
		case OpMax:
			v = float32(math.Max(float64(x), float64(y)))
		}
		return bitsF32(v), nil
	case F16:
		x, y := h16(a), h16(b)
		var v fp16.Float16
		switch op {
		case OpAdd:
			v = x.Add(y)
		case OpSub:
			v = x.Sub(y)
		case OpMul:
			v = x.Mul(y)
		case OpDiv:
			v = x.Div(y)
		case OpMin:
			if x.Less(y) {
				v = x
			} else {
				v = y
			}
		case OpMax:
			if y.Less(x) {
				v = x
			} else {
				v = y
			}
		}
		return bitsH16(v), nil
	case F16X2:
		lo, err := arith(op, F16, a&0xffff, b&0xffff)
		if err != nil {
			return 0, err
		}
		hi, err := arith(op, F16, a>>16&0xffff, b>>16&0xffff)
		if err != nil {
			return 0, err
		}
		return hi<<16 | lo, nil
	}
	return 0, fmt.Errorf("ptx: arithmetic on unsupported type %v", t)
}

func mad(t Type, a, b, c uint64) (uint64, error) {
	switch t {
	case U32:
		return truncate(a*b+c, U32), nil
	case S32:
		return uint64(uint32(int32(uint32(a))*int32(uint32(b)) + int32(uint32(c)))), nil
	case U64:
		return a*b + c, nil
	case F32:
		// fma.rn.f32: a single rounding.
		return bitsF32(float32(math.FMA(float64(f32bits(a)), float64(f32bits(b)), float64(f32bits(c))))), nil
	case F16:
		return bitsH16(fp16.FMA(h16(a), h16(b), h16(c))), nil
	case F16X2:
		lo, _ := mad(F16, a&0xffff, b&0xffff, c&0xffff)
		hi, _ := mad(F16, a>>16&0xffff, b>>16&0xffff, c>>16&0xffff)
		return hi<<16 | lo, nil
	}
	return 0, fmt.Errorf("ptx: mad on unsupported type %v", t)
}

func compare(t Type, cmp CmpOp, a, b uint64) (bool, error) {
	var c int
	switch t {
	case U32:
		c = cmpOrd(a&0xffffffff, b&0xffffffff)
	case U64:
		c = cmpOrd(a, b)
	case S32:
		c = cmpOrd(int32(uint32(a)), int32(uint32(b)))
	case F32:
		x, y := f32bits(a), f32bits(b)
		if x != x || y != y { // NaN: only NE holds
			return cmp == CmpNE, nil
		}
		c = cmpOrd(x, y)
	case F16:
		x, y := h16(a), h16(b)
		if x.IsNaN() || y.IsNaN() {
			return cmp == CmpNE, nil
		}
		c = cmpOrd(x.Float32(), y.Float32())
	default:
		return false, fmt.Errorf("ptx: setp on unsupported type %v", t)
	}
	switch cmp {
	case CmpEQ:
		return c == 0, nil
	case CmpNE:
		return c != 0, nil
	case CmpLT:
		return c < 0, nil
	case CmpLE:
		return c <= 0, nil
	case CmpGT:
		return c > 0, nil
	default:
		return c >= 0, nil
	}
}

func cmpOrd[T int32 | uint64 | float32](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func convert(dst, src Type, v uint64) (uint64, error) {
	switch {
	case dst == src:
		return truncate(v, dst), nil
	case dst == U64 && src == U32:
		return v & 0xffffffff, nil
	case dst == U64 && src == S32:
		return uint64(int64(int32(uint32(v)))), nil
	case (dst == U32 || dst == S32) && src == U64:
		return v & 0xffffffff, nil
	case dst == U32 && src == S32, dst == S32 && src == U32:
		return v & 0xffffffff, nil
	case dst == F32 && src == F16:
		return bitsF32(h16(v).Float32()), nil
	case dst == F16 && src == F32:
		return bitsH16(fp16.FromFloat32(f32bits(v))), nil
	case dst == F32 && (src == U32 || src == S32):
		if src == S32 {
			return bitsF32(float32(int32(uint32(v)))), nil
		}
		return bitsF32(float32(uint32(v))), nil
	case (dst == U32 || dst == S32) && src == F32:
		return uint64(uint32(int32(f32bits(v)))), nil
	case dst == F16 && (src == U32 || src == S32):
		if src == S32 {
			return bitsH16(fp16.FromFloat64(float64(int32(uint32(v))))), nil
		}
		return bitsH16(fp16.FromFloat64(float64(uint32(v)))), nil
	}
	return 0, fmt.Errorf("ptx: unsupported cvt.%v.%v", dst, src)
}
