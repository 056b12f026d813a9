package ptx

import (
	"repro/internal/fp16"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched wmma fragment path. After PR 4 the tensor-core
// instructions were the last per-element hot loops: wmma.load/store
// resolved the state space and called the Memory interface once per
// fragment element per lane, and wmma.mma reconstructed its operand
// tiles (and scattered D) one register at a time through per-element
// operand dispatch, layout-branching Matrix indexing and a per-element
// precision switch. The batched path gives fragments the same
// struct-of-arrays treatment ld/st received: the decoded instruction
// carries per-slot lane vectors derived from the wmma.Mapping
// (wmma.SlotVecs), addresses are generated per lane in one pass, data
// moves in bulk over maximal element runs (one Memory call per run),
// and gather/scatter walk slots in the outer loop with the precision
// switch hoisted, indexing the tile storage through precomputed linear
// offsets. The per-element path remains for warps with guard predicates
// or partial activity and for mappings whose lanes disagree on fragment
// structure.

// fragPlan is the decoded form of one wmma.Mapping: per-slot lane
// vectors of precomputed tile offsets, built once per static
// instruction (decode time) and shared read-only by every warp — so
// the type is frozen outside planFragment.
//
//simlint:frozen
type fragPlan struct {
	slots      int
	rows, cols int
	// idx[slot][lane] is the linear offset of the lane's element in a
	// tight row-major rows×cols tile (the executor's scratch layout).
	idx [][32]int32
	// major/minor[slot][lane] factor the element's memory offset under
	// the mapping's layout: offset = major·ld + minor for leading
	// dimension ld.
	major, minor [][32]int32
}

// planFragment builds the fragment plan, or returns nil when the
// mapping is absent or its lanes disagree on fragment structure — the
// executor then keeps the per-lane path for this instruction.
//
//simlint:ctor
func planFragment(m *wmma.Mapping) *fragPlan {
	if m == nil {
		return nil
	}
	v := m.SlotVecs()
	if !v.Uniform {
		return nil
	}
	rows, cols := m.Shape.Dims(m.Op)
	p := &fragPlan{slots: v.Slots, rows: rows, cols: cols}
	p.idx = make([][32]int32, p.slots)
	p.major = make([][32]int32, p.slots)
	p.minor = make([][32]int32, p.slots)
	for slot := 0; slot < p.slots; slot++ {
		for lane := 0; lane < 32; lane++ {
			r, c := int32(v.Row[slot][lane]), int32(v.Col[slot][lane])
			p.idx[slot][lane] = r*int32(cols) + c
			if m.Layout == tensor.RowMajor {
				p.major[slot][lane], p.minor[slot][lane] = r, c
			} else {
				p.major[slot][lane], p.minor[slot][lane] = c, r
			}
		}
	}
	return p
}

// fragVec reports whether the instruction takes the batched fragment
// path: no guard predicate, fully populated warp. Callers additionally
// require the relevant plans to exist.
func (w *Warp) fragVec(d *DInstr) bool {
	return d.predID < 0 && w.nLanes == 32
}

// fragLaneAddrs fills the reusable per-lane address scratch from the
// plan's factored offsets — the same arithmetic as the per-lane path
// (memOffsetFor), so the two paths produce bit-identical addresses for
// any stride, including pathological ones.
//
//simlint:hotpath
func (w *Warp) fragLaneAddrs(p *fragPlan, lane, ld int, base, elemBytes uint64) []uint64 {
	addrs := w.laneAddrs(p.slots)
	for s := 0; s < p.slots; s++ {
		off := int(p.major[s][lane])*ld + int(p.minor[s][lane])
		addrs[s] = base + uint64(off)*elemBytes
	}
	return addrs
}

// execWmmaLoadVec is the batched wmma.load data movement: per lane, one
// address pass through the plan, then one Env read per maximal run of
// byte-consecutive elements, unpacked into the destination registers.
// Access emission is shared with the per-lane path (emitFragAccesses),
// so the timing model sees an identical stream.
func (w *Warp) execWmmaLoadVec(d *DInstr, res *Result, base, stride uint64) {
	in := d.In
	m := in.WMap
	p := d.wplan
	elemBytes := uint64(d.membytes)
	signExt := elemBytes == 1 && (m.Elem == wmma.S8 || m.Elem == wmma.S4)
	batched := true
	for lane := 0; lane < 32; lane++ {
		addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
		forEachFragRun(addrs, elemBytes, func(i, j int) {
			w.loadFragRun(d, lane, addrs[i:j], i, elemBytes, signExt)
		})
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, false)
	}
}

// forEachFragRun calls f on each maximal [i,j) run of byte-consecutive
// elements — the data-movement granularity. The access emission
// (fragPieces) derives its own runs deliberately: it works in element
// *bits* (sub-byte s4/u4 elements are byte-stored but 4-bit-shaped, so
// their SASS-level pieces never merge) and splits at 128-bit piece
// boundaries, neither of which constrains how many bytes one Env call
// may move.
func forEachFragRun(addrs []uint64, nb uint64, f func(i, j int)) {
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+nb {
			j++
		}
		f(i, j)
		i = j
	}
}

// fragRunUniform reports whether a run's resolved endpoints prove the
// whole run lives in one state space at contiguous addresses — the bulk
// data-movement precondition. Matching endpoints alone are not enough
// under generic addressing: a run can contain the entire shared window
// with both endpoints resolving to Global, so Global endpoints
// additionally require the raw span to miss the window.
func (w *Warp) fragRunUniform(space Space, run []uint64, nb, total uint64, sp Space, a0, aE uint64, spE Space) bool {
	if sp != spE || a0 > aE || aE-a0 != total-nb {
		return false
	}
	if space == Generic && sp == Global {
		lo, hi := run[0], run[len(run)-1]+nb
		limit := SharedBase + uint64(len(w.Env.Shared))
		if lo < limit && hi > SharedBase {
			return false
		}
	}
	return true
}

// loadFragRun moves one lane's run of consecutive fragment elements
// from memory into registers: one bulk read when the whole run resolves
// into a single state space, else the per-element fallback (a run
// straddling or containing the generic shared-window boundary must read
// each element where the per-lane path would).
//
//simlint:hotpath
func (w *Warp) loadFragRun(d *DInstr, lane int, run []uint64, slot0 int, nb uint64, signExt bool) {
	in := d.In
	total := uint64(len(run)) * nb
	sp, a0 := w.Env.resolveSpace(in.Space, run[0])
	spE, aE := w.Env.resolveSpace(in.Space, run[len(run)-1])
	if w.fragRunUniform(in.Space, run, nb, total, sp, a0, aE, spE) {
		buf := w.bulk[:total]
		if sp == Shared {
			copy(buf, w.Env.Shared[a0:a0+total])
		} else {
			w.Env.Global.Read(a0, buf)
		}
		for i := range run {
			w.setReg(lane, in.Dst[slot0+i], w.unpackFragElem(buf[uint64(i)*nb:], nb, signExt))
		}
		return
	}
	buf := w.membuf[:nb]
	for i, a := range run {
		w.Env.read(in.Space, a, buf)
		w.setReg(lane, in.Dst[slot0+i], w.unpackFragElem(buf, nb, signExt))
	}
}

// unpackFragElem assembles one fragment element's register value from
// little-endian bytes, with the signed sub-32-bit extension of the
// per-lane path.
func (w *Warp) unpackFragElem(src []byte, nb uint64, signExt bool) uint64 {
	var v uint64
	for b := int(nb) - 1; b >= 0; b-- {
		v = v<<8 | uint64(src[b])
	}
	if signExt {
		// Signed integer operands live in registers as s32 values.
		v = uint64(uint32(int32(int8(v))))
	}
	return v
}

// execWmmaStoreVec is the batched wmma.store data movement: register
// values are packed per run and written with one Env write per run,
// preserving the per-lane path's lane-major, slot-ascending write order
// (runs are slot-ascending and internally disjoint).
func (w *Warp) execWmmaStoreVec(d *DInstr, res *Result, base, stride uint64) {
	in := d.In
	m := in.WMap
	p := d.wplan
	elemBytes := uint64(d.membytes)
	batched := true
	nr := w.Kernel.NumRegs
	for lane := 0; lane < 32; lane++ {
		addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
		forEachFragRun(addrs, elemBytes, func(i, j int) {
			w.storeFragRun(d, lane*nr, lane, addrs[i:j], i, elemBytes)
		})
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, true)
	}
}

// storeFragRun packs one lane's run of consecutive fragment elements
// and writes it with a single Env write when the run resolves into one
// state space, else element by element.
//
//simlint:hotpath
func (w *Warp) storeFragRun(d *DInstr, base, lane int, run []uint64, slot0 int, nb uint64) {
	in := d.In
	total := uint64(len(run)) * nb
	sp, a0 := w.Env.resolveSpace(in.Space, run[0])
	spE, aE := w.Env.resolveSpace(in.Space, run[len(run)-1])
	if w.fragRunUniform(in.Space, run, nb, total, sp, a0, aE, spE) {
		buf := w.bulk[:total]
		for i := range run {
			v := d.val(w, base, lane, &d.srcs[2+slot0+i])
			packFragElem(buf[uint64(i)*nb:], nb, v)
		}
		if sp == Shared {
			copy(w.Env.Shared[a0:a0+total], buf)
		} else {
			w.Env.Global.Write(a0, buf)
		}
		return
	}
	buf := w.membuf[:nb]
	for i, a := range run {
		v := d.val(w, base, lane, &d.srcs[2+slot0+i])
		packFragElem(buf, nb, v)
		w.Env.write(in.Space, a, buf)
	}
}

// packFragElem serializes one fragment element into little-endian bytes.
func packFragElem(dst []byte, nb, v uint64) {
	for b := 0; b < int(nb); b++ {
		dst[b] = byte(v >> (8 * b))
	}
}

// gatherTileVec is the batched gatherTile: slots in the outer loop (the
// fragment register is warp-uniform per slot), lanes in a tight inner
// loop, the precision switch hoisted, and tile elements addressed
// through the plan's precomputed linear offsets. Duplicate fragment
// copies (Volta A/B hold every element in two lanes) must agree — the
// wmma architectural invariant wmma.load establishes — so the write
// order between the two paths is immaterial.
//
//simlint:hotpath
func (w *Warp) gatherTileVec(d *DInstr, p *fragPlan, srcOff int, elem wmma.Precision, slot int) *tensor.Matrix {
	t := w.scratchTile(p.rows, p.cols, slot)
	nr := w.Kernel.NumRegs
	for s := 0; s < p.slots; s++ {
		r := int(d.srcs[srcOff+s].reg)
		idx := &p.idx[s]
		switch elem {
		case wmma.F16:
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				t.SetLinear(int(idx[lane]), fp16.FromBits(uint16(w.regs[base+r])).Float64())
			}
		case wmma.F32:
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				t.SetLinear(int(idx[lane]), float64(f32bits(w.regs[base+r])))
			}
		default: // integer operand types live as s32 values in registers
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				t.SetLinear(int(idx[lane]), float64(int32(uint32(w.regs[base+r]))))
			}
		}
	}
	return t
}

// scatterTileVec is the batched D scatter: the inverse of
// gatherTileVec, writing encoded tile elements into the per-slot
// destination registers.
//
//simlint:hotpath
func (w *Warp) scatterTileVec(d *DInstr, p *fragPlan, elem wmma.Precision, t *tensor.Matrix) {
	nr := w.Kernel.NumRegs
	for s := 0; s < p.slots; s++ {
		r := int(d.dsts[s])
		idx := &p.idx[s]
		switch elem {
		case wmma.F16:
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				w.regs[base+r] = uint64(fp16.FromFloat64(t.AtLinear(int(idx[lane]))).Bits())
			}
		case wmma.F32:
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				w.regs[base+r] = bitsF32(float32(t.AtLinear(int(idx[lane]))))
			}
		default:
			for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
				w.regs[base+r] = uint64(uint32(int32(t.AtLinear(int(idx[lane])))))
			}
		}
	}
}

// execWmmaMMAVec runs wmma.mma through the batched fragment views: SoA
// gathers, the warp's reusable quantization scratch, and the SoA
// scatter. Arithmetic (wmma.MMAIntoBuf) is byte-for-byte the per-lane
// path's MMAInto.
func (w *Warp) execWmmaMMAVec(d *DInstr, nA, nB int) error {
	cfg := d.In.WConfig
	aTile := w.gatherTileVec(d, d.wA, 0, cfg.AType, 0)
	bTile := w.gatherTileVec(d, d.wB, nA, cfg.AType, 1)
	cTile := w.gatherTileVec(d, d.wC, nA+nB, cfg.CType, 2)
	dTile := w.scratchTile(cfg.Shape.M, cfg.Shape.N, 3)
	if !cfg.AType.IsInt() {
		// Integer configs dispatch to the exact int datapath, which
		// never quantizes through fp16 scratch.
		if need := wmma.QuantBufLen(cfg); cap(w.quantBuf) < need {
			w.quantBuf = make([]fp16.Float16, need)
		}
	}
	if err := wmma.MMAIntoBuf(cfg, aTile, bTile, cTile, dTile, w.quantBuf); err != nil {
		return err
	}
	w.scatterTileVec(d, d.wD, cfg.DType, dTile)
	return nil
}
