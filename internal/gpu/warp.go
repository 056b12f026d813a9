package gpu

import (
	"math"
	"math/bits"

	"repro/internal/ptx"
)

// Warp lifecycle and the per-sub-core ready-set bookkeeping. Instead of
// rescanning every warp every cycle, each sub-core keeps (a) a bitmask of
// Ready warps and (b) a min-heap of Stalled warps keyed by their wake
// cycle, both updated at the moments warp state actually changes — issue,
// scoreboard stall, stallUntil expiry, barrier arrival and release, and
// warp finish. The scheduler then consults only the ready set, and the
// idle fast-forward reads the next wake straight off the heap top.
//
// On top of the ready set, the sub-core maintains the *issue order*
// incrementally, so no policy re-sorts candidates per cycle:
//   - zeroMask marks the warps whose lastIssue is still zero (never
//     issued, or issued only at cycle 0 — GTO's least-recently-issued
//     order cannot tell those apart, so neither does the mask). They are
//     ordered by enumeration in rotation order from the greedy slot.
//   - the age list (ageHead/ageTail, intrusive in simWarp) chains the
//     warps with lastIssue ≥ 1 in strictly ascending lastIssue — strict
//     because at most one warp issues per sub-core per cycle, so a
//     tail-append at issue time keeps the list sorted with no
//     comparisons. Issue, finish and re-issue are all O(1) list splices.
//   - tlMask mirrors the TwoLevel active subset as a bitmask so its
//     issue order is a mask intersection instead of list filtering.
//
// Invariants:
//   - a warp's state is warpReady  ⇔ its slot bit is set in readyMask
//   - a warp's state is warpStalled ⇔ it has exactly one wakeHeap entry,
//     keyed by its current stallUntil (stallUntil never changes while
//     Stalled, so entries are never stale)
//   - warpAtBarrier / warpFinished warps appear in neither structure
//   - a live warp is in zeroMask ⇔ its lastIssue == 0, and in the age
//     list ⇔ its lastIssue ≥ 1; the age list ascends strictly.

// warpState is the scheduling lifecycle state of a simWarp.
type warpState uint8

const (
	// warpReady: offerable to the scheduler — not finished, not at a
	// barrier, stallUntil expired (a busy unit can still block issue).
	warpReady warpState = iota
	// warpStalled: waiting for a known cycle (scoreboard hazard or the
	// post-release barrier latency); parked in the sub-core's wake heap.
	warpStalled
	// warpAtBarrier: waiting for the CTA barrier; only a release wakes it.
	warpAtBarrier
	// warpFinished: executed exit or ran out of instructions.
	warpFinished
)

type simCTA struct {
	env       *ptx.Env
	warps     []*simWarp
	live      int
	atBarrier int
}

type simWarp struct {
	warp       *ptx.Warp
	cta        *simCTA
	sc         *subcore
	slot       int // index in sc.warps, maintained across compaction
	state      warpState
	regReady   []uint64
	stallUntil uint64
	lastIssue  uint64
	// tlActive marks membership in the TwoLevel policy's active subset.
	tlActive bool
	// Intrusive age-list links: the sub-core chains warps with
	// lastIssue ≥ 1 in ascending issue age. Pointers survive slot
	// compaction, which only renumbers w.slot.
	agePrev, ageNext *simWarp
	inAge            bool
}

type subcore struct {
	warps []*simWarp
	// ports models structural availability of the execution units — the
	// one seam the scheduler consults before issue (see ports.go).
	ports  unitPorts
	greedy int // index of the warp GTO sticks with; LRR/TwoLevel rotation anchor
	// nextWake mirrors sm.nextWake at sub-core granularity: while the
	// clock is below it this sub-core's scheduler is skipped.
	// pendingWake collects barrier releases that re-arm this sub-core's
	// warps while its own scan is in flight.
	nextWake    uint64
	pendingWake uint64

	policy schedPolicy
	// tlCap is the TwoLevel active-subset size; tlActive its population.
	tlCap    int
	tlActive int

	readyMask []uint64    // bit per warp slot: state == warpReady
	zeroMask  []uint64    // bit per warp slot: live and lastIssue == 0
	tlMask    []uint64    // bit per warp slot: in the TwoLevel active subset
	wakeHeap  []wakeEntry // min-heap over Stalled warps' stallUntil
	// ageHead/ageTail chain the warps with lastIssue ≥ 1, oldest issue
	// first.
	ageHead, ageTail *simWarp
	orderBuf         []int    // scratch: policy issue order
	maskBuf          []uint64 // scratch: issueOrder mask intersections
}

// wakeEntry parks one Stalled warp in the sub-core's wake min-heap.
type wakeEntry struct {
	at uint64
	w  *simWarp
}

// reset clears all per-run state, keeping allocated capacity.
func (sc *subcore) reset() {
	sc.warps = sc.warps[:0]
	sc.ports = unitPorts{}
	sc.greedy = 0
	sc.nextWake, sc.pendingWake = 0, math.MaxUint64
	sc.tlActive = 0
	for i := range sc.readyMask {
		sc.readyMask[i] = 0
		sc.zeroMask[i] = 0
		sc.tlMask[i] = 0
	}
	sc.wakeHeap = sc.wakeHeap[:0]
	sc.ageHead, sc.ageTail = nil, nil
}

func (sc *subcore) setBit(slot int)   { sc.readyMask[slot>>6] |= 1 << (slot & 63) }
func (sc *subcore) clearBit(slot int) { sc.readyMask[slot>>6] &^= 1 << (slot & 63) }

func (sc *subcore) setZero(slot int)   { sc.zeroMask[slot>>6] |= 1 << (slot & 63) }
func (sc *subcore) clearZero(slot int) { sc.zeroMask[slot>>6] &^= 1 << (slot & 63) }

func (sc *subcore) setTL(slot int)   { sc.tlMask[slot>>6] |= 1 << (slot & 63) }
func (sc *subcore) clearTL(slot int) { sc.tlMask[slot>>6] &^= 1 << (slot & 63) }

func (sc *subcore) readyBit(slot int) bool {
	return sc.readyMask[slot>>6]&(1<<(slot&63)) != 0
}

// enqueue adds a newly dispatched warp to the sub-core's pool. The warp's
// state must already be set (Ready, or Finished for warps that exited
// during initialization).
func (sc *subcore) enqueue(w *simWarp) {
	w.slot = len(sc.warps)
	sc.warps = append(sc.warps, w)
	for len(sc.readyMask)*64 <= w.slot {
		sc.readyMask = append(sc.readyMask, 0)
		sc.zeroMask = append(sc.zeroMask, 0)
		sc.tlMask = append(sc.tlMask, 0)
	}
	if w.state == warpReady {
		sc.setBit(w.slot)
		sc.setZero(w.slot) // a fresh warp has lastIssue == 0
	}
}

// setReady wakes a Stalled warp whose stallUntil expired (the warp was
// just popped off the wake heap).
func (sc *subcore) setReady(w *simWarp) {
	w.state = warpReady
	sc.setBit(w.slot)
}

// stall moves a Ready warp to Stalled until the given cycle.
func (sc *subcore) stall(w *simWarp, until uint64) {
	w.stallUntil = until
	w.state = warpStalled
	sc.clearBit(w.slot)
	sc.heapPush(until, w)
}

// toBarrier parks a Ready warp at its CTA barrier.
func (sc *subcore) toBarrier(w *simWarp) {
	w.state = warpAtBarrier
	sc.clearBit(w.slot)
}

// release re-arms a warp waiting at a barrier: AtBarrier → Stalled until
// the post-release latency expires.
func (sc *subcore) release(w *simWarp, until uint64) {
	w.stallUntil = until
	w.state = warpStalled
	sc.heapPush(until, w)
}

// finish retires a Ready warp (exit, or no instructions left).
func (sc *subcore) finish(w *simWarp) {
	sc.policy.retired(sc, w)
	w.state = warpFinished
	sc.clearBit(w.slot)
	sc.clearZero(w.slot)
	sc.ageRemove(w)
}

// ageAppend links the warp at the age-list tail. The caller just issued
// it, and at most one warp issues per sub-core per cycle, so the tail
// append keeps the list strictly ascending in lastIssue.
//
//simlint:hotpath
func (sc *subcore) ageAppend(w *simWarp) {
	w.agePrev = sc.ageTail
	w.ageNext = nil
	if sc.ageTail != nil {
		sc.ageTail.ageNext = w
	} else {
		sc.ageHead = w
	}
	sc.ageTail = w
	w.inAge = true
}

// ageRemove unlinks the warp from the age list; no-op when absent.
//
//simlint:hotpath
func (sc *subcore) ageRemove(w *simWarp) {
	if !w.inAge {
		return
	}
	if w.agePrev != nil {
		w.agePrev.ageNext = w.ageNext
	} else {
		sc.ageHead = w.ageNext
	}
	if w.ageNext != nil {
		w.ageNext.agePrev = w.agePrev
	} else {
		sc.ageTail = w.agePrev
	}
	w.agePrev, w.ageNext = nil, nil
	w.inAge = false
}

// noteIssued maintains the incremental issue order after w issued at
// now. Exit-class instructions retire the warp inside issue() — its
// order entry was already dropped by finish, so it is skipped here.
// A cycle-0 issue leaves lastIssue at zero, indistinguishable from
// never-issued in GTO's least-recently-issued order, so the warp stays
// in the zero prefix rather than joining the age list.
//
//simlint:hotpath
func (sc *subcore) noteIssued(w *simWarp, now uint64) {
	if w.state == warpFinished || now == 0 {
		return
	}
	if w.inAge {
		sc.ageRemove(w)
	} else {
		sc.clearZero(w.slot)
	}
	sc.ageAppend(w)
}

// drainWake moves every Stalled warp whose wake cycle has arrived back to
// the ready set.
//
//simlint:hotpath
func (sc *subcore) drainWake(now uint64) {
	for len(sc.wakeHeap) > 0 && sc.wakeHeap[0].at <= now {
		sc.setReady(sc.heapPop().w)
	}
}

// heapTop returns the earliest Stalled wake cycle, MaxUint64 when none.
func (sc *subcore) heapTop() uint64 {
	if len(sc.wakeHeap) == 0 {
		return math.MaxUint64
	}
	return sc.wakeHeap[0].at
}

//simlint:hotpath
func (sc *subcore) heapPush(at uint64, w *simWarp) {
	h := append(sc.wakeHeap, wakeEntry{at, w})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.wakeHeap = h
}

//simlint:hotpath
func (sc *subcore) heapPop() wakeEntry {
	h := sc.wakeHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].at < h[l].at {
			l = r
		}
		if h[i].at <= h[l].at {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	sc.wakeHeap = h
	return top
}

// andMask intersects a and b into the sub-core's mask scratch.
//
//simlint:hotpath
func (sc *subcore) andMask(a, b []uint64) []uint64 {
	out := sc.maskBuf[:0]
	for i := range a {
		out = append(out, a[i]&b[i])
	}
	sc.maskBuf = out
	return out
}

// maskIntersects reports whether a and b share a set bit.
//
//simlint:hotpath
func maskIntersects(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// appendRotatedMask appends the mask's set slots in rotation order from
// g+1 (the slots above g, then the wrap-around from 0 back to g),
// excluding skip (-1 for none).
//
//simlint:hotpath
func appendRotatedMask(mask []uint64, g, skip int, buf []int) []int {
	gw, gb := g>>6, uint(g&63)
	low := uint64(1)<<(gb+1) - 1 // bits 0..g&63 of g's word; all 64 when gb is 63
	for wi, word := gw, mask[gw]&^low; ; {
		for word != 0 {
			slot := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if slot != skip {
				buf = append(buf, slot)
			}
		}
		wi++
		if wi >= len(mask) {
			break
		}
		word = mask[wi]
	}
	for wi := 0; wi < gw; wi++ {
		for word := mask[wi]; word != 0; word &= word - 1 {
			slot := wi*64 + bits.TrailingZeros64(word)
			if slot != skip {
				buf = append(buf, slot)
			}
		}
	}
	for word := mask[gw] & low; word != 0; word &= word - 1 {
		slot := gw*64 + bits.TrailingZeros64(word)
		if slot != skip {
			buf = append(buf, slot)
		}
	}
	return buf
}

// removeFinished compacts the warp pool after a CTA retires, reassigning
// slots and rebuilding the slot-indexed masks (heap entries and age-list
// links hold pointers and survive compaction; Finished warps are in
// neither).
func (sc *subcore) removeFinished() {
	kept := sc.warps[:0]
	for _, w := range sc.warps {
		if w.state == warpFinished {
			continue
		}
		w.slot = len(kept)
		kept = append(kept, w)
	}
	sc.warps = kept
	if sc.greedy >= len(sc.warps) {
		sc.greedy = 0
	}
	for i := range sc.readyMask {
		sc.readyMask[i] = 0
		sc.zeroMask[i] = 0
		sc.tlMask[i] = 0
	}
	for _, w := range kept {
		if w.state == warpReady {
			sc.setBit(w.slot)
		}
		if w.lastIssue == 0 {
			sc.setZero(w.slot)
		}
		if w.tlActive {
			sc.setTL(w.slot)
		}
	}
}

// issuable reports whether the warp can be offered to the scheduler at
// the given cycle: not finished, not at a barrier, and past stallUntil.
func (w *simWarp) issuable(now uint64) bool {
	return w.state != warpFinished && w.state != warpAtBarrier && w.stallUntil <= now
}

// hazardClear returns the cycle at which every register the instruction
// scoreboards is written back — zero when none are pending. It walks the
// decode-time packed register set (the ≤64-ID bitmask plus the rare wide
// spill) instead of the id slice.
//
//simlint:hotpath
func (w *simWarp) hazardClear(in *ptx.DInstr) uint64 {
	latest := uint64(0)
	mask, wide := in.ScoreboardSet()
	for mask != 0 {
		id := bits.TrailingZeros64(mask)
		mask &= mask - 1
		if t := w.regReady[id]; t > latest {
			latest = t
		}
	}
	for _, id := range wide {
		if t := w.regReady[id]; t > latest {
			latest = t
		}
	}
	return latest
}

// operandsReady checks the scoreboard for RAW and WAW hazards.
//
//simlint:hotpath
func (w *simWarp) operandsReady(in *ptx.DInstr, now uint64) (bool, uint64) {
	if latest := w.hazardClear(in); latest > now {
		return false, latest
	}
	return true, now
}
