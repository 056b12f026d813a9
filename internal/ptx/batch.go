package ptx

import "encoding/binary"

// The batched warp access path. A per-lane executor would report one
// Access struct per lane per instruction and read or write memory one
// lane at a time; for a 32-lane warp that is 32 struct appends, 32
// generic-space resolutions and up to 32 Memory interface calls per load
// or store — the dominant cost of memory-bound SIMT kernels once ALU
// dispatch and scheduling are decoded (the fig17 profile). The batched
// path instead generates all 32 lane addresses in one pass into a WarpAccess — a
// struct-of-arrays vector with an active-lane bitmask and the shared
// width/space/store attributes — resolves the state space once per
// instruction, and moves contiguous data in bulk: a warp whose lanes
// read one unit-stride range becomes a single Memory.Read, and runs of
// consecutive lanes become one call per run. The timing model consumes
// the vector directly (mem.AddrVec aliases the address array), so no
// per-lane request list is ever materialized.

// WarpAccess is the batched form of one warp instruction's memory access
// group: per-lane addresses (stale in unmasked lanes), the active-lane
// bitmask and the attributes every lane shares. Ordinary ld/st produce
// one group (two when generic addressing splits the warp across spaces);
// wmma.load/store produce one group per fragment piece. Like
// Result.Accesses, the groups alias per-warp scratch valid until the
// warp's next Step.
type WarpAccess struct {
	Addr  [32]uint64
	Mask  uint32
	Bits  int32
	Space Space // Global or Shared after generic resolution
	Store bool
}

// appendBatchSlot extends the batch by one group without zeroing the
// (mask-guarded, stale) lane addresses of a recycled backing array.
func appendBatchSlot(b []WarpAccess) ([]WarpAccess, *WarpAccess) {
	if len(b) < cap(b) {
		b = b[:len(b)+1]
	} else {
		b = append(b, WarpAccess{})
	}
	return b, &b[len(b)-1]
}

// LaneAccesses returns the instruction's memory accesses in per-lane
// form: Result.Accesses when the wmma fragment fallback produced them,
// otherwise the lane-major expansion of the batched groups. Tests and
// tools use it; the timing model consumes the batch directly.
func (r *Result) LaneAccesses() []Access {
	if len(r.Accesses) > 0 || len(r.Batch) == 0 {
		return r.Accesses
	}
	return expandBatch(nil, r.Batch)
}

// expandBatch appends the lane-major expansion of batched groups.
func expandBatch(out []Access, batch []WarpAccess) []Access {
	for lane := 0; lane < 32; lane++ {
		bit := uint32(1) << lane
		for gi := range batch {
			g := &batch[gi]
			if g.Mask&bit == 0 {
				continue
			}
			out = append(out, Access{
				Lane: lane, Addr: g.Addr[lane], Bits: int(g.Bits),
				Space: g.Space, Store: g.Store,
			})
		}
	}
	return out
}

// genLdStAddrs fills the group's address vector and mask for a decoded
// ld/st. The dominant shape — plain register base, fully active
// unguarded warp, classified at decode time — indexes the register file
// directly; everything else goes through the per-lane guard and operand
// resolution.
//
//simlint:hotpath
func (w *Warp) genLdStAddrs(d *DInstr, wa *WarpAccess) {
	nr := w.Kernel.NumRegs
	if ar := int(d.addrReg); ar >= 0 && d.predID < 0 && w.nLanes == 32 {
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			wa.Addr[lane] = w.regs[base+ar]
		}
		wa.Mask = ^uint32(0)
		return
	}
	var mask uint32
	a0 := &d.srcs[0]
	for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
		if !d.laneOn(w, base, lane) {
			continue
		}
		mask |= 1 << lane
		wa.Addr[lane] = d.val(w, base, lane, a0)
	}
	wa.Mask = mask
}

// resolveBatchSpace resolves the group's state space in place, exactly
// as Env.resolveSpace does per lane. Static spaces resolve once per
// instruction; a generic access that straddles the shared window splits
// into a second group so each group ends up in exactly one space.
func (w *Warp) resolveBatchSpace(res *Result, gi int) {
	wa := &res.Batch[gi]
	switch wa.Space {
	case Global:
		return
	case Shared:
		for lane := 0; lane < 32; lane++ {
			if wa.Mask&(1<<lane) != 0 && wa.Addr[lane] >= SharedBase {
				wa.Addr[lane] -= SharedBase
			}
		}
		return
	}
	// Generic: a lane is shared iff its address falls inside the window.
	limit := SharedBase + uint64(len(w.Env.Shared))
	var sharedMask uint32
	for lane := 0; lane < 32; lane++ {
		if wa.Mask&(1<<lane) == 0 {
			continue
		}
		if a := wa.Addr[lane]; a >= SharedBase && a < limit {
			sharedMask |= 1 << lane
			wa.Addr[lane] = a - SharedBase
		}
	}
	switch sharedMask {
	case 0:
		wa.Space = Global
		return
	case wa.Mask:
		wa.Space = Shared
		return
	}
	// Mixed: keep the global lanes here, split the shared lanes off.
	// (accessMemory partitions by space, so group order is immaterial.)
	var split *WarpAccess
	res.Batch, split = appendBatchSlot(res.Batch)
	wa = &res.Batch[gi] // re-resolve: append may have moved the backing
	*split = *wa
	split.Space = Shared
	split.Mask = sharedMask
	wa.Space = Global
	wa.Mask &^= sharedMask
}

// execLoadBatched executes a decoded ld: one address pass, one space
// resolution, then bulk data movement — a single read for a
// uniform broadcast, one read per maximal unit-stride lane run for
// everything else global, and direct slice reads for shared memory.
//
//simlint:hotpath
func (w *Warp) execLoadBatched(d *DInstr, res *Result) {
	var wa *WarpAccess
	res.Batch, wa = appendBatchSlot(res.Batch)
	wa.Bits = int32(d.In.Width)
	wa.Space = d.space
	wa.Store = false
	w.genLdStAddrs(d, wa)
	if wa.Mask == 0 {
		res.Batch = res.Batch[:len(res.Batch)-1]
		return
	}
	w.resolveBatchSpace(res, len(res.Batch)-1)
	for gi := range res.Batch {
		w.loadGroup(d, &res.Batch[gi])
	}
}

// loadGroup moves one group's data from memory into the destination
// registers.
//
//simlint:hotpath
func (w *Warp) loadGroup(d *DInstr, g *WarpAccess) {
	nr := w.Kernel.NumRegs
	nb := uint64(d.membytes)
	if g.Space == Shared {
		shared := w.Env.Shared
		for lane := 0; lane < 32; lane++ {
			if g.Mask&(1<<lane) == 0 {
				continue
			}
			a := g.Addr[lane]
			w.unpackLoad(d, lane*nr, shared[a:a+nb])
		}
		return
	}
	if g.Mask == ^uint32(0) && uniformAddrs(&g.Addr) {
		// Broadcast: all lanes read the same bytes once.
		buf := w.bulk[:nb]
		w.Env.Global.Read(g.Addr[0], buf)
		for lane, base := 0, 0; lane < 32; lane, base = lane+1, base+nr {
			w.unpackLoad(d, base, buf)
		}
		return
	}
	// One Memory.Read per maximal run of consecutive masked lanes with
	// contiguous addresses (run length 1 degrades to the per-lane read).
	for lane := 0; lane < 32; {
		if g.Mask&(1<<lane) == 0 {
			lane++
			continue
		}
		end := lane + 1
		for end < 32 && g.Mask&(1<<end) != 0 && g.Addr[end] == g.Addr[end-1]+nb {
			end++
		}
		n := uint64(end - lane)
		buf := w.bulk[: n*nb : n*nb]
		w.Env.Global.Read(g.Addr[lane], buf)
		for i := lane; i < end; i++ {
			w.unpackLoad(d, i*nr, buf[uint64(i-lane)*nb:])
		}
		lane = end
	}
}

// unpackLoad writes one lane's loaded bytes into its destination
// registers (base is the lane's register-file offset).
func (w *Warp) unpackLoad(d *DInstr, base int, src []byte) {
	if d.In.Width == 16 {
		w.regs[base+int(d.dsts[0])] = uint64(binary.LittleEndian.Uint16(src))
		return
	}
	for i := 0; i < int(d.words); i++ {
		w.regs[base+int(d.dsts[i])] = uint64(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// execStoreBatched executes a decoded st the same way.
//
//simlint:hotpath
func (w *Warp) execStoreBatched(d *DInstr, res *Result) {
	var wa *WarpAccess
	res.Batch, wa = appendBatchSlot(res.Batch)
	wa.Bits = int32(d.In.Width)
	wa.Space = d.space
	wa.Store = true
	w.genLdStAddrs(d, wa)
	if wa.Mask == 0 {
		res.Batch = res.Batch[:len(res.Batch)-1]
		return
	}
	w.resolveBatchSpace(res, len(res.Batch)-1)
	for gi := range res.Batch {
		w.storeGroup(d, &res.Batch[gi])
	}
}

// storeGroup moves one group's register values into memory. Lane order
// is preserved (within a run addresses are disjoint; runs are emitted in
// lane order), so overlapping stores resolve as a per-lane store loop
// would: last lane wins.
//
//simlint:hotpath
func (w *Warp) storeGroup(d *DInstr, g *WarpAccess) {
	nr := w.Kernel.NumRegs
	nb := uint64(d.membytes)
	if g.Space == Shared {
		shared := w.Env.Shared
		for lane := 0; lane < 32; lane++ {
			if g.Mask&(1<<lane) == 0 {
				continue
			}
			a := g.Addr[lane]
			w.packStore(d, lane*nr, lane, shared[a:a+nb])
		}
		return
	}
	for lane := 0; lane < 32; {
		if g.Mask&(1<<lane) == 0 {
			lane++
			continue
		}
		end := lane + 1
		for end < 32 && g.Mask&(1<<end) != 0 && g.Addr[end] == g.Addr[end-1]+nb {
			end++
		}
		n := uint64(end - lane)
		buf := w.bulk[: n*nb : n*nb]
		for i := lane; i < end; i++ {
			w.packStore(d, i*nr, i, buf[uint64(i-lane)*nb:uint64(i-lane+1)*nb])
		}
		w.Env.Global.Write(g.Addr[lane], buf)
		lane = end
	}
}

// packStore serializes one lane's source operands into dst.
func (w *Warp) packStore(d *DInstr, base, lane int, dst []byte) {
	if d.In.Width == 16 {
		v := d.val(w, base, lane, &d.srcs[1])
		binary.LittleEndian.PutUint16(dst, uint16(v))
		return
	}
	for i := 0; i < int(d.words); i++ {
		v := d.val(w, base, lane, &d.srcs[1+i])
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// uniformAddrs reports whether all 32 lanes hold one address.
func uniformAddrs(a *[32]uint64) bool {
	a0 := a[0]
	for i := 1; i < 32; i++ {
		if a[i] != a0 {
			return false
		}
	}
	return true
}
