package gpu

import (
	"math"
	"math/bits"
)

// The warp-scheduling core: a per-sub-core driver that reads the issue
// candidates off the event-driven ready set, orders them through a
// pluggable schedPolicy, and attempts them until one issues. The
// test-side scan-and-sort reference sub-core in order_test.go checks the
// incremental order against a per-cycle rescan.

// schedPolicy orders a sub-core's ready warps for issue. Policies are
// stateless singletons; their per-sub-core state (rotation anchor, active
// subset) lives on the subcore and its warps.
type schedPolicy interface {
	// preferred returns the slot the driver should attempt before paying
	// for the full candidate order (-1 when the policy has no sticky
	// preference). GTO's greedy warp issues back to back in the common
	// case, so this keeps the scheduler O(1) on those cycles.
	preferred(sc *subcore) int
	// issueOrder appends the ready slots to buf in issue-priority order,
	// derived straight from the sub-core's incrementally maintained
	// structures (readyMask, zeroMask, the age list, tlMask) with no
	// per-cycle sort. The driver attempts buf in order until one warp
	// issues; the preferred slot may be included — the driver skips it
	// if already attempted.
	issueOrder(sc *subcore, now uint64, buf []int) []int
	// issued notes that the warp in slot won this cycle's issue.
	issued(sc *subcore, slot int)
	// retired notes that w left the sub-core's pool.
	retired(sc *subcore, w *simWarp)
}

var (
	gtoSched      = gtoPolicy{}
	lrrSched      = lrrPolicy{}
	twoLevelSched = twoLevelPolicy{}
)

func policyFor(p SchedulerPolicy) schedPolicy {
	switch p {
	case LRR:
		return lrrSched
	case TwoLevel:
		return twoLevelSched
	default:
		return gtoSched
	}
}

// defaultTwoLevelActive sizes the TwoLevel active subset when
// Config.TwoLevelActive is zero.
const defaultTwoLevelActive = 4

// gtoPolicy is greedy-then-oldest: the last issuer first (via preferred),
// then the remaining ready warps by ascending lastIssue, ties broken by
// rotation order after the greedy slot.
type gtoPolicy struct{}

func (gtoPolicy) preferred(sc *subcore) int { return sc.greedy }

// issueOrder reads the (lastIssue, rotation distance) order off the
// incremental structures with no per-cycle sort: the lastIssue == 0
// group is the zero-prefix in rotation order from greedy+1 (the
// rotation tie-break when every key is zero), and the lastIssue ≥ 1
// group is the age list, strictly ascending by construction.
//
//simlint:hotpath
func (gtoPolicy) issueOrder(sc *subcore, _ uint64, buf []int) []int {
	g := sc.greedy
	buf = appendRotatedMask(sc.andMask(sc.zeroMask, sc.readyMask), g, g, buf)
	for w := sc.ageHead; w != nil; w = w.ageNext {
		if w.slot != g && sc.readyBit(w.slot) {
			buf = append(buf, w.slot)
		}
	}
	return buf
}

func (gtoPolicy) issued(sc *subcore, slot int) { sc.greedy = slot }
func (gtoPolicy) retired(*subcore, *simWarp)   {}

// lrrPolicy is loose round-robin: ready warps in rotation order starting
// one past the last issuer.
type lrrPolicy struct{}

func (lrrPolicy) preferred(*subcore) int { return -1 }

//simlint:hotpath
func (lrrPolicy) issueOrder(sc *subcore, _ uint64, buf []int) []int {
	return appendRotatedMask(sc.readyMask, sc.greedy, -1, buf)
}

func (lrrPolicy) issued(sc *subcore, slot int) { sc.greedy = slot }
func (lrrPolicy) retired(*subcore, *simWarp)   {}

// twoLevelPolicy issues round-robin within a small active subset of the
// sub-core's warps; the rest wait in a pending pool. When no active warp
// is ready (all stalled on memory, the scoreboard, or a barrier), ready
// pending warps are promoted, demoting non-issuable active warps to make
// room — the classic two-level scheme that concentrates issue bandwidth
// on a few warps to keep their locality while the pool hides long
// latencies.
type twoLevelPolicy struct{}

func (twoLevelPolicy) preferred(*subcore) int { return -1 }

// issueOrder promotes and orders on the mask structures: promotion
// decisions come from readyMask ∧/∧^ tlMask intersections, and the final
// order is one rotated-mask enumeration of the ready active subset.
//
//simlint:hotpath
func (twoLevelPolicy) issueOrder(sc *subcore, now uint64, buf []int) []int {
	if !maskIntersects(sc.readyMask, sc.tlMask) {
		// The whole active subset is blocked: swap in ready pending warps
		// one for one, ascending. Every current member is non-issuable
		// here, so demotion always finds a victim while the subset is
		// full.
	promote:
		for wi, word := range sc.readyMask {
			for ; word != 0; word &= word - 1 {
				if sc.tlActive >= sc.tlCap && !sc.demoteOne(now) {
					break promote
				}
				idx := wi*64 + bits.TrailingZeros64(word)
				sc.warps[idx].tlActive = true
				sc.setTL(idx)
				sc.tlActive++
			}
		}
	} else if sc.tlActive < sc.tlCap {
		// Spare capacity: fill it from the ready pending warps, ascending.
	fill:
		for wi := range sc.readyMask {
			for word := sc.readyMask[wi] &^ sc.tlMask[wi]; word != 0; word &= word - 1 {
				if sc.tlActive >= sc.tlCap {
					break fill
				}
				idx := wi*64 + bits.TrailingZeros64(word)
				sc.warps[idx].tlActive = true
				sc.setTL(idx)
				sc.tlActive++
			}
		}
	}
	return appendRotatedMask(sc.andMask(sc.readyMask, sc.tlMask), sc.greedy, -1, buf)
}

// demoteOne evicts the lowest-slot non-issuable member of the active
// subset; false when every member is issuable.
func (sc *subcore) demoteOne(now uint64) bool {
	for _, w := range sc.warps {
		if w.tlActive && !w.issuable(now) {
			w.tlActive = false
			sc.clearTL(w.slot)
			sc.tlActive--
			return true
		}
	}
	return false
}

func (twoLevelPolicy) issued(sc *subcore, slot int) { sc.greedy = slot }

func (twoLevelPolicy) retired(sc *subcore, w *simWarp) {
	if w.tlActive {
		w.tlActive = false
		sc.clearTL(w.slot)
		sc.tlActive--
	}
}

// stepSubcore lets the sub-core's scheduler issue at most one warp
// instruction. Returns whether one issued and the earliest cycle at which
// a currently blocked warp could become issuable.
//
//simlint:hotpath
func (m *sm) stepSubcore(sc *subcore, now uint64, st *Stats) (issued bool, wake uint64, err error) {
	wake = math.MaxUint64
	if len(sc.warps) == 0 {
		return false, wake, nil
	}
	if sc.greedy >= len(sc.warps) {
		sc.greedy = 0
	}
	sc.drainWake(now)
	// Sticky fast path: attempt the policy's preferred warp before paying
	// for the candidate set (tryWarp self-screens, so a blocked preferred
	// warp only contributes its wake cycle).
	tried := -1
	if p := sc.policy.preferred(sc); p >= 0 {
		iss, wk, e := m.tryWarp(sc, p, now, st)
		if wk < wake {
			wake = wk
		}
		if e != nil || iss {
			return iss, wake, e
		}
		tried = p
	}
	if top := sc.heapTop(); top < wake {
		wake = top
	}
	order := sc.policy.issueOrder(sc, now, sc.orderBuf[:0])
	sc.orderBuf = order[:0]
	for _, idx := range order {
		if idx == tried {
			continue
		}
		iss, wk, e := m.tryWarp(sc, idx, now, st)
		if wk < wake {
			wake = wk
		}
		if e != nil || iss {
			return iss, wake, e
		}
	}
	return false, wake, nil
}

// tryWarp attempts to issue the warp in the given slot. outcome is one
// of: issued (an instruction went out), or blocked with wake holding the
// earliest cycle the warp could become issuable (MaxUint64 when it has
// none). Scoreboard hazards move the warp to Stalled as a side effect.
//
//simlint:hotpath
func (m *sm) tryWarp(sc *subcore, idx int, now uint64, st *Stats) (issued bool, wake uint64, err error) {
	wake = math.MaxUint64
	w := sc.warps[idx]
	if w.state == warpFinished || w.state == warpAtBarrier {
		return false, wake, nil
	}
	if w.stallUntil > now {
		return false, w.stallUntil, nil
	}
	in := w.warp.PeekD()
	if in == nil {
		m.finishWarp(w, now)
		// A finish without an issue still changes scheduler state (active
		// slots free up, CTAs may retire): re-step next cycle rather than
		// letting the fast-forward sleep. Without this, TwoLevel could
		// park a sub-core forever when its whole active subset exhausts
		// its instruction stream in one pass while ready pending warps
		// (filtered out of this pass's order) still hold work.
		return false, now + 1, nil
	}
	if ready, at := w.operandsReady(in, now); !ready {
		sc.stall(w, at)
		return false, at, nil
	}
	if free, at := sc.ports.free(in, now); !free {
		return false, at, nil
	}
	if err := m.issue(sc, w, in, now, st); err != nil {
		return false, wake, err
	}
	sc.policy.issued(sc, idx)
	sc.noteIssued(w, now)
	return true, wake, nil
}
