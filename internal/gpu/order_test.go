package gpu

import (
	"math/rand"
	"sort"
	"testing"
)

// The issue-order property harness: an event-driven sub-core (wake heap,
// ready and zero masks, age list, TwoLevel mask) and a scan-and-sort
// reference sub-core, driven through identical randomized sequences of
// issue / hazard-park / barrier / release / finish / CTA-retire / fresh
// dispatch transitions, asserting after every step that the incremental
// issue order equals the reference order and that the mirrored warp
// state has not drifted. This is the contract of DESIGN.md's "O(1) issue
// selection".

// refWarp is the reference sub-core's view of one warp: only the
// scheduling state the policies read.
type refWarp struct {
	state      warpState
	stallUntil uint64
	lastIssue  uint64
	tlActive   bool
}

func (w *refWarp) issuable(now uint64) bool {
	return w.state != warpFinished && w.state != warpAtBarrier && w.stallUntil <= now
}

// refSubcore is the specification issueOrder must reproduce. Every
// cycle it rescans the pool for issuable warps and orders them straight
// from each policy's definition: GTO by least recent issue, ties by
// rotation distance from greedy+1 (greedy itself excluded — the driver
// tries it first); LRR in rotation order from greedy+1; TwoLevel in
// rotation order over its active subset, after promoting ready pending
// warps into it.
type refSubcore struct {
	pol      SchedulerPolicy
	warps    []*refWarp
	greedy   int
	tlCap    int
	tlActive int
}

// ready returns the issuable slots in ascending order.
func (r *refSubcore) ready(now uint64) []int {
	var out []int
	for i, w := range r.warps {
		if w.issuable(now) {
			out = append(out, i)
		}
	}
	return out
}

// rotated returns the ascending slots in rotation order from g+1: first
// the slots above g, then the wrap-around tail.
func rotated(g int, slots []int) []int {
	var out []int
	for _, s := range slots {
		if s > g {
			out = append(out, s)
		}
	}
	for _, s := range slots {
		if s <= g {
			out = append(out, s)
		}
	}
	return out
}

// order is the reference issue order at cycle now. Like issueOrder, the
// TwoLevel branch updates the active subset as a side effect.
func (r *refSubcore) order(now uint64) []int {
	if r.greedy >= len(r.warps) {
		r.greedy = 0
	}
	ready := r.ready(now)
	switch r.pol {
	case GTO:
		n, g := len(r.warps), r.greedy
		dist := func(s int) int { return (s - g - 1 + n) % n }
		var out []int
		for _, s := range ready {
			if s != g {
				out = append(out, s)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			li, lj := r.warps[out[i]].lastIssue, r.warps[out[j]].lastIssue
			if li != lj {
				return li < lj
			}
			return dist(out[i]) < dist(out[j])
		})
		return out
	case LRR:
		return rotated(r.greedy, ready)
	}
	anyActive := false
	for _, s := range ready {
		anyActive = anyActive || r.warps[s].tlActive
	}
	if !anyActive {
		// The whole active subset is blocked: swap in ready pending
		// warps one for one, demoting the lowest-slot non-issuable
		// member while the subset is full.
		for _, s := range ready {
			if r.tlActive >= r.tlCap && !r.demoteOne(now) {
				break
			}
			r.warps[s].tlActive = true
			r.tlActive++
		}
	} else {
		// Spare capacity: fill it from the ready pending warps.
		for _, s := range ready {
			if w := r.warps[s]; r.tlActive < r.tlCap && !w.tlActive {
				w.tlActive = true
				r.tlActive++
			}
		}
	}
	var out []int
	for _, s := range rotated(r.greedy, ready) {
		if r.warps[s].tlActive {
			out = append(out, s)
		}
	}
	return out
}

func (r *refSubcore) demoteOne(now uint64) bool {
	for _, w := range r.warps {
		if w.tlActive && !w.issuable(now) {
			w.tlActive = false
			r.tlActive--
			return true
		}
	}
	return false
}

// finish retires a warp, dropping it from the TwoLevel active subset.
func (r *refSubcore) finish(w *refWarp) {
	if w.tlActive {
		w.tlActive = false
		r.tlActive--
	}
	w.state = warpFinished
}

// removeFinished compacts the pool after a CTA retires.
func (r *refSubcore) removeFinished() {
	kept := r.warps[:0]
	for _, w := range r.warps {
		if w.state != warpFinished {
			kept = append(kept, w)
		}
	}
	r.warps = kept
	if r.greedy >= len(r.warps) {
		r.greedy = 0
	}
}

type orderTwin struct {
	ev  *subcore    // the incremental structures under test
	ref *refSubcore // the scan-and-sort reference
	now uint64
}

func newOrderTwin(pol SchedulerPolicy, nWarps int) *orderTwin {
	tw := &orderTwin{
		ev:  &subcore{policy: policyFor(pol), tlCap: defaultTwoLevelActive},
		ref: &refSubcore{pol: pol, tlCap: defaultTwoLevelActive},
	}
	tw.ev.reset()
	for i := 0; i < nWarps; i++ {
		tw.enqueue()
	}
	return tw
}

// enqueue dispatches one fresh Ready warp to both twins.
func (tw *orderTwin) enqueue() {
	tw.ev.enqueue(&simWarp{state: warpReady})
	tw.ref.warps = append(tw.ref.warps, &refWarp{state: warpReady})
}

// orders computes this cycle's issue order on both twins, mirroring the
// stepSubcore driver: the event twin drains its wake heap first, the
// reference rescans.
func (tw *orderTwin) orders() (ev, ref []int) {
	if len(tw.ev.warps) == 0 {
		return nil, nil
	}
	if tw.ev.greedy >= len(tw.ev.warps) {
		tw.ev.greedy = 0
	}
	tw.ev.drainWake(tw.now)
	ev = tw.ev.policy.issueOrder(tw.ev, tw.now, nil)
	return ev, tw.ref.order(tw.now)
}

// issue replays the tryWarp/issue flow for the warp in slot on both
// twins: lastIssue, the proactive hazard park (or the next-cycle
// stallUntil), the policy's greedy update, and the incremental-order
// update. hazardUntil ≤ now+1 means the next instruction has no pending
// hazard.
func (tw *orderTwin) issue(slot int, hazardUntil uint64) {
	w, r := tw.ev.warps[slot], tw.ref.warps[slot]
	w.lastIssue, r.lastIssue = tw.now, tw.now
	if hazardUntil > tw.now+1 {
		tw.ev.stall(w, hazardUntil)
		r.state, r.stallUntil = warpStalled, hazardUntil
	} else if w.stallUntil <= tw.now {
		w.stallUntil, r.stallUntil = tw.now+1, tw.now+1
	}
	tw.issued(slot)
}

// issued notes slot as this cycle's issuer on both twins.
func (tw *orderTwin) issued(slot int) {
	tw.ev.policy.issued(tw.ev, slot)
	tw.ev.noteIssued(tw.ev.warps[slot], tw.now)
	tw.ref.greedy = slot
}

// issueBarrier replays issuing a bar instruction: the warp parks at the
// barrier but still updates lastIssue and the issue order.
func (tw *orderTwin) issueBarrier(slot int) {
	w, r := tw.ev.warps[slot], tw.ref.warps[slot]
	w.lastIssue, r.lastIssue = tw.now, tw.now
	tw.ev.toBarrier(w)
	r.state = warpAtBarrier
	tw.issued(slot)
}

// issueExit replays issuing an exit: finishWarp runs inside issue, then
// the driver still notes the slot as this cycle's issuer.
func (tw *orderTwin) issueExit(slot int) {
	w, r := tw.ev.warps[slot], tw.ref.warps[slot]
	w.lastIssue, r.lastIssue = tw.now, tw.now
	tw.finish(slot)
	tw.issued(slot)
}

// finish replays the stream-exhaustion path (PeekD == nil): the warp
// retires without issuing.
func (tw *orderTwin) finish(slot int) {
	tw.ev.finish(tw.ev.warps[slot])
	tw.ref.finish(tw.ref.warps[slot])
}

// release re-arms a warp waiting at the barrier on both twins.
func (tw *orderTwin) release(slot int, until uint64) {
	tw.ev.release(tw.ev.warps[slot], until)
	r := tw.ref.warps[slot]
	r.state, r.stallUntil = warpStalled, until
}

func (tw *orderTwin) removeFinished() {
	tw.ev.removeFinished()
	tw.ref.removeFinished()
}

// check asserts the twins agree on issue order and on every warp's
// scheduling state.
func (tw *orderTwin) check(t *testing.T, step int) {
	t.Helper()
	ev, ref := tw.orders()
	if !intsEqual(ev, ref) {
		t.Fatalf("step %d cycle %d: incremental order %v != reference order %v", step, tw.now, ev, ref)
	}
	if tw.ev.greedy != tw.ref.greedy {
		t.Fatalf("step %d: greedy drifted: event %d reference %d", step, tw.ev.greedy, tw.ref.greedy)
	}
	if len(tw.ev.warps) != len(tw.ref.warps) {
		t.Fatalf("step %d: pool sizes drifted: %d vs %d", step, len(tw.ev.warps), len(tw.ref.warps))
	}
	if tw.ev.tlActive != tw.ref.tlActive {
		t.Fatalf("step %d: active-subset size drifted: event %d reference %d", step, tw.ev.tlActive, tw.ref.tlActive)
	}
	for i := range tw.ev.warps {
		we, wr := tw.ev.warps[i], tw.ref.warps[i]
		// Ready and Stalled normalize together: the reference derives
		// readiness from stallUntil and never flips the state back, while
		// the event twin's drainWake does — issuable() is the shared truth.
		if normState(we.state) != normState(wr.state) || we.stallUntil != wr.stallUntil ||
			we.lastIssue != wr.lastIssue || we.tlActive != wr.tlActive {
			t.Fatalf("step %d slot %d: warp state drifted: event %+v reference %+v", step, i, *we, *wr)
		}
	}
}

func normState(s warpState) warpState {
	if s == warpStalled {
		return warpReady
	}
	return s
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candidates is the full attempt order the driver would walk: the
// preferred slot (when issuable) followed by the policy order.
func (tw *orderTwin) candidates() []int {
	var out []int
	if p := tw.ev.policy.preferred(tw.ev); p >= 0 && p < len(tw.ev.warps) && tw.ev.warps[p].issuable(tw.now) {
		out = append(out, p)
	}
	ev, _ := tw.orders()
	return append(out, ev...)
}

// runOrderSequence drives both twins through a seeded random transition
// sequence, checking equivalence after every step. maxWarps caps the
// pool so fresh dispatches keep arriving without unbounded growth.
func runOrderSequence(t *testing.T, pol SchedulerPolicy, nWarps int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tw := newOrderTwin(pol, nWarps)
	maxWarps := nWarps + 8
	for step := 0; step < steps; step++ {
		tw.check(t, step)
		cand := tw.candidates()
		switch op := rng.Intn(100); {
		case op < 55 && len(cand) > 0:
			// Issue the first candidate; half the time its next
			// instruction has a pending hazard and it parks proactively.
			until := tw.now + 1
			if rng.Intn(2) == 0 {
				until = tw.now + 2 + uint64(rng.Intn(8))
			}
			tw.issue(cand[0], until)
		case op < 65 && len(cand) > 0:
			tw.issueBarrier(cand[0])
		case op < 72 && len(cand) > 0:
			tw.issueExit(cand[0])
		case op < 78 && len(cand) > 0:
			tw.finish(cand[0])
		case op < 88:
			// Release one barrier-parked warp, as a CTA-wide release would.
			for off, n := rng.Intn(len(tw.ev.warps)+1), 0; n < len(tw.ev.warps); n++ {
				i := (off + n) % len(tw.ev.warps)
				if tw.ev.warps[i].state == warpAtBarrier {
					tw.release(i, tw.now+1+uint64(rng.Intn(5)))
					break
				}
			}
		case op < 94:
			tw.removeFinished()
		default:
			if len(tw.ev.warps) < maxWarps {
				tw.enqueue()
			}
		}
		// At most one issue per sub-core per cycle: always advance.
		tw.now += 1 + uint64(rng.Intn(3))
	}
	tw.check(t, steps)
}

// TestIssueOrderEquivalence is the table-driven sweep: every policy,
// pool sizes on both sides of the 64-slot mask-word boundary, several
// seeds.
func TestIssueOrderEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		pol    SchedulerPolicy
		nWarps int
		seed   int64
		steps  int
	}{
		{"gto/small", GTO, 4, 1, 400},
		{"gto/subcore16", GTO, 16, 2, 600},
		{"gto/multiword", GTO, 70, 3, 800},
		{"lrr/small", LRR, 4, 4, 400},
		{"lrr/subcore16", LRR, 16, 5, 600},
		{"lrr/multiword", LRR, 70, 6, 800},
		{"twolevel/small", TwoLevel, 4, 7, 400},
		{"twolevel/subcore16", TwoLevel, 16, 8, 600},
		{"twolevel/multiword", TwoLevel, 70, 9, 800},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runOrderSequence(t, c.pol, c.nWarps, c.seed, c.steps)
		})
	}
}

// TestIssueOrderCycleZeroTie pins the subtlety the zero prefix encodes:
// a warp that issues at cycle 0 keeps lastIssue == 0, so GTO's
// least-recently-issued order cannot distinguish it from never-issued
// warps — it must stay in the rotation-ordered zero group, not join the
// age list.
func TestIssueOrderCycleZeroTie(t *testing.T) {
	tw := newOrderTwin(GTO, 4)
	tw.issue(2, 1) // issues at cycle 0; lastIssue stays 0
	tw.now = 1
	ev, ref := tw.orders()
	want := []int{3, 0, 1} // rotation from greedy+1, greedy (2) excluded
	if !intsEqual(ev, want) || !intsEqual(ref, want) {
		t.Fatalf("after cycle-0 issue: event %v reference %v, want %v", ev, ref, want)
	}
	if tw.ev.warps[2].inAge {
		t.Fatal("cycle-0 issuer must stay in the zero prefix, not the age list")
	}
}

// TestIssueOrderReissueAndCompaction pins the age-list splices: re-issue
// moves a warp to the tail, finish unlinks it, and CTA-retire compaction
// renumbers slots without breaking the chain.
func TestIssueOrderReissueAndCompaction(t *testing.T) {
	tw := newOrderTwin(GTO, 5)
	tw.now = 1
	tw.issue(1, 2)
	tw.now = 2
	tw.issue(3, 3)
	tw.now = 4
	tw.issue(1, 5) // re-issue: 1 moves behind 3 in age order
	tw.now = 6
	ev, ref := tw.orders()
	// greedy is 1; zero group {0,2,4} rotated from slot 2, then ages 3, (1 excluded).
	want := []int{2, 4, 0, 3}
	if !intsEqual(ev, want) || !intsEqual(ref, want) {
		t.Fatalf("after re-issue: event %v reference %v, want %v", ev, ref, want)
	}
	tw.issueExit(3)
	tw.removeFinished() // slot 4 renumbers to 3
	tw.now = 7
	tw.check(t, 0)
	if head := tw.ev.ageHead; head == nil || head.slot != 1 || head.ageNext != nil {
		t.Fatalf("age list must hold exactly the re-issued warp after compaction")
	}
}

// FuzzIssueOrder fuzzes the transition sequence. The seed corpus uses
// the fig17 quick occupancy shapes: 8 warps (one CTA per sub-core), 16
// (the max-occupancy SIMT GEMM's per-sub-core load) and 64 (a full SM's
// warp budget landing on one sub-core in the 1-SM ablation).
func FuzzIssueOrder(f *testing.F) {
	f.Add(int64(17), uint8(0), uint8(8), uint16(300))
	f.Add(int64(17), uint8(1), uint8(16), uint16(300))
	f.Add(int64(17), uint8(2), uint8(64), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, pol, nWarps uint8, steps uint16) {
		policies := []SchedulerPolicy{GTO, LRR, TwoLevel}
		n := int(nWarps)%96 + 1
		s := int(steps) % 1000
		runOrderSequence(t, policies[int(pol)%len(policies)], n, seed, s)
	})
}
