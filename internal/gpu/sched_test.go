package gpu

import (
	"encoding/binary"
	"testing"

	"repro/internal/ptx"
)

// divergentBarrierKernel makes the upper half of the block's warps exit
// immediately while the lower half synchronizes at a barrier — the
// "a warp finishes while others wait at the barrier" scenario: the
// barrier must release on the live warps alone.
func divergentBarrierKernel() *ptx.Kernel {
	b := ptx.NewBuilder("diverge")
	pout := b.Param("out", ptx.U64)
	tid, p := b.Reg(), b.Reg()
	b.Mov(ptx.U32, tid, ptx.SR(ptx.SRegTidX))
	b.Setp(ptx.U32, ptx.CmpGE, p, ptx.R(tid), ptx.Imm(64))
	b.BraIf(p, false, "skip")
	b.Bar()
	off, dst := b.Reg(), b.Reg()
	b.MulWide(off, ptx.R(tid), ptx.Imm(4))
	b.Add(ptx.U64, dst, ptx.R(off), ptx.R(pout))
	b.St(ptx.Global, 32, ptx.R(dst), []ptx.Operand{ptx.R(tid)})
	b.Label("skip")
	b.Exit()
	return b.MustBuild()
}

// A barrier released while the releasing sub-core's own scan is in
// flight must re-arm warps the scan already passed over (pendingWake).
// Eight warps share four sub-cores, so the last arrival always releases
// a warp its own sub-core skipped earlier in the same cycle; a dropped
// wake-up would surface as the simulator's deadlock error.
func TestBarrierReleaseMidScanRearms(t *testing.T) {
	for _, pol := range Schedulers() {
		mem := ptx.NewFlatMemory(2 * 4 * 256)
		for i := 0; i < 256; i++ {
			binary.LittleEndian.PutUint32(mem.Data[4*i:], uint32(i*3))
		}
		cfg := TitanV()
		cfg.NumSMs = 1
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(LaunchSpec{
			Kernel: stagedKernel(),
			Grid:   ptx.D1(1),
			Block:  ptx.D1(256), // 8 warps on 4 sub-cores
			Args:   []uint64{0, 4 * 256},
			Global: mem,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for i := 0; i < 256; i++ {
			want := uint32((255 - i) * 3)
			if got := binary.LittleEndian.Uint32(mem.Data[4*(256+i):]); got != want {
				t.Fatalf("%v: out[%d] = %d, want %d", pol, i, got, want)
			}
		}
		if st.Cycles == 0 {
			t.Errorf("%v: no cycles simulated", pol)
		}
	}
}

// A warp that finishes while its CTA siblings wait at the barrier must
// not leave them parked: the barrier releases once every *live* warp has
// arrived, and the survivors complete their stores.
func TestWarpFinishWhileOthersAtBarrier(t *testing.T) {
	for _, pol := range Schedulers() {
		mem := ptx.NewFlatMemory(4 * 128)
		cfg := TitanV()
		cfg.NumSMs = 1
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(LaunchSpec{
			Kernel: divergentBarrierKernel(),
			Grid:   ptx.D1(1),
			Block:  ptx.D1(128),
			Args:   []uint64{0},
			Global: mem,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		// Lanes 0..63 passed the barrier and stored their tid; 64..127
		// exited before it and stored nothing.
		for i := 0; i < 128; i++ {
			want := uint32(i)
			if i >= 64 {
				want = 0
			}
			if got := binary.LittleEndian.Uint32(mem.Data[4*i:]); got != want {
				t.Fatalf("%v: out[%d] = %d, want %d", pol, i, got, want)
			}
		}
	}
}

// A kernel whose program runs off the end without an exit instruction
// finishes its warps via PeekD() == nil — without an issue. With more
// warps per sub-core than the TwoLevel active subset, the whole subset
// can exhaust its stream in one scheduling pass; the ready pending warps
// (not in that pass's order) must still get scheduled rather than the
// sub-core sleeping forever on a MaxUint64 wake.
func TestTwoLevelSurvivesStreamExhaustion(t *testing.T) {
	// The program must be stores only: the LSU accepts every cycle and
	// immediate stores carry no register dependencies, so no warp ever
	// enters the wake heap, the active warps round-robin to exhaustion in
	// consecutive cycles, and the fatal pass finds every active warp at
	// stream end with an empty heap (an ALU instruction anywhere staggers
	// the warps onto the heap, whose finite wake masks the bug).
	noExit := func() *ptx.Kernel {
		b := ptx.NewBuilder("noexit")
		pout := b.Param("out", ptx.U64)
		for i := 0; i < 4; i++ {
			b.St(ptx.Global, 32, ptx.R(pout), []ptx.Operand{ptx.Imm(7)})
		}
		return b.MustBuild()
	}
	for _, pol := range Schedulers() {
		cfg := TitanV()
		cfg.NumSMs = 1
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(LaunchSpec{
			Kernel: noExit(),
			Grid:   ptx.D1(1),
			Block:  ptx.D1(1024), // 32 warps, 8 per sub-core > the active subset of 4
			Args:   []uint64{0},
			Global: ptx.NewFlatMemory(4096),
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if want := uint64(32 * 4); st.WarpInstructions != want {
			t.Errorf("%v: %d warp instructions, want %d", pol, st.WarpInstructions, want)
		}
	}
}

// All three policies must issue exactly the same work on a multi-CTA
// launch — scheduling changes the order and the cycle count, never the
// instruction stream.
func TestPoliciesAgreeOnWarpInstructions(t *testing.T) {
	var ref *Stats
	for _, pol := range Schedulers() {
		cfg := smallTitanV()
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(LaunchSpec{
			Kernel: vecAddKernel(),
			Grid:   ptx.D1(16),
			Block:  ptx.D1(128),
			Args:   []uint64{0, 4 * 2048, 8 * 2048},
			Global: ptx.NewFlatMemory(3 * 4 * 2048),
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if st.CTAsSimulated != 16 {
			t.Errorf("%v: simulated %d CTAs, want 16", pol, st.CTAsSimulated)
		}
		if ref == nil {
			ref = st
			continue
		}
		if st.WarpInstructions != ref.WarpInstructions || st.ThreadInstructions != ref.ThreadInstructions {
			t.Errorf("%v: instructions %d/%d diverge from %d/%d",
				pol, st.WarpInstructions, st.ThreadInstructions,
				ref.WarpInstructions, ref.ThreadInstructions)
		}
	}
}

// The policies must actually schedule differently: on a sub-core with
// competing warps, GTO keeps reissuing the greedy warp while LRR rotates.
func TestPoliciesDiffer(t *testing.T) {
	cycles := map[SchedulerPolicy]uint64{}
	for _, pol := range Schedulers() {
		cfg := TitanV()
		cfg.NumSMs = 1
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(LaunchSpec{
			Kernel: mmaLoopKernel(16),
			Grid:   ptx.D1(1),
			Block:  ptx.D1(32 * 8),
			Args:   []uint64{0},
			Global: ptx.NewFlatMemory(4096),
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		cycles[pol] = st.Cycles
	}
	if cycles[GTO] == cycles[LRR] && cycles[GTO] == cycles[TwoLevel] {
		t.Errorf("all policies produced identical cycle counts (%d); the policy axis is inert", cycles[GTO])
	}
}
