package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gpu"
)

func TestScriptsPairAlignmentAndMix(t *testing.T) {
	sc := scripts(7)
	if len(sc[0]) != len(sc[1]) {
		t.Fatalf("script lengths differ: %d vs %d", len(sc[0]), len(sc[1]))
	}
	fresh := make(map[string]int)
	hot := 0
	for c := range sc {
		for i, it := range sc[c] {
			if it.pair >= 0 {
				other := sc[1-c][i]
				if other.pair != it.pair || other.req != it.req {
					t.Fatalf("client %d slot %d: pair %d not aligned with the other client", c, i, it.pair)
				}
				if c == 0 {
					fresh[it.req.String()]++
				}
				continue
			}
			if it.req.Sched == "" {
				hot++
			} else {
				fresh[it.req.String()]++
			}
		}
	}
	if len(fresh) != len(freshKeys()) {
		t.Errorf("%d distinct fresh keys, want all %d", len(fresh), len(freshKeys()))
	}
	for k, n := range fresh {
		if n != 1 {
			t.Errorf("fresh key %s scheduled %d times", k, n)
		}
	}
	total := len(sc[0]) + len(sc[1])
	if share := float64(hot) / float64(total); share < 0.74 || share > 0.76 {
		t.Errorf("hot share %.3f, want about 0.75", share)
	}
	if !reflect.DeepEqual(sc, scripts(7)) {
		t.Error("scripts are not a function of the seed")
	}
	if reflect.DeepEqual(sc, scripts(8)) {
		t.Error("different seeds gave the same scripts")
	}
}

// rendered prints a table the way simd serves it.
func rendered(tb *experiments.Table) string {
	return fmt.Sprintf("# Figure X (%s)\n%s\n", tb.ID, tb.String())
}

func TestServedAccuracy(t *testing.T) {
	a := &experiments.Table{ID: "fig14a", Columns: []string{"size", "sim_cycles", "hw_cycles", "sim/hw"}}
	a.AddRow("32", "110", "100.00", "1.10")
	a.AddRow("64", "180", "200.00", "0.90")
	a.Note("relative deviation stddev = 1.0%%")
	b := &experiments.Table{ID: "fig14b", Columns: []string{"config", "hw_ipc", "sim_ipc"}}
	b.AddRow("k1", "1.00", "2.00")
	b.AddRow("k2", "2.00", "4.00")
	b.AddRow("k3", "3.00", "6.00")
	b.Note("IPC correlation = 100.00%% over 3 kernels")

	errPct, corr, err := servedAccuracy(rendered(a), rendered(b))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errPct-10) > 1e-9 || math.Abs(corr-100) > 1e-9 {
		t.Errorf("got cycle error %v%%, correlation %v%%; want 10, 100", errPct, corr)
	}
	if _, _, err := servedAccuracy("no table", rendered(b)); err == nil {
		t.Error("a reply without rows was accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	add := func(name string, parent *span, start, end int64) *span {
		s := tr.start(name, parent, 0)
		s.Start, s.End = start, end
		return s
	}
	root := add("bench.launch", nil, 0, 100)
	run := add("gpu.Run", root, 10, 70)
	add("cuda.ReadMatrix", root, 70, 90)
	add("ptx.inner", run, 20, 30)

	got := tr.selfTimes()
	want := map[string]float64{"bench": 20e-9, "gpu": 50e-9, "cuda": 20e-9, "ptx": 10e-9}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-15 {
			t.Errorf("self[%s] = %g, want %g", l, got[l], w)
		}
	}
	if tot := tr.total("gpu.Run"); math.Abs(tot-60e-9) > 1e-15 {
		t.Errorf("total(gpu.Run) = %g, want 60ns", tot)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.start("gpu.Run", nil, 0)
	sp.stop()
	if tr.selfTimes() != nil || tr.total("gpu.Run") != 0 || tr.write("unused") != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestPerLaunchCalibratedMedians(t *testing.T) {
	pass := func(scale float64, cold ...float64) passResult {
		var pr passResult
		for i, c := range cold {
			lr := launchResult{coldS: c, scale: scale}
			if i == 0 {
				lr.warm, lr.warmS = &gpu.Stats{}, c/2
			}
			pr.launches = append(pr.launches, lr)
		}
		return pr
	}
	// The same work in a slow phase (half speed) and two normal ones.
	passes := []passResult{pass(1, 1, 3), pass(0.5, 2, 6), pass(1, 1.2, 3.6)}
	cold := perLaunch(passes, func(lr launchResult) (float64, bool) { return lr.coldS, true })
	if want := []float64{1, 3}; !reflect.DeepEqual(cold, want) {
		t.Errorf("cold = %v, want %v", cold, want)
	}
	warm := perLaunch(passes, func(lr launchResult) (float64, bool) { return lr.warmS, lr.warm != nil })
	if want := []float64{0.5}; !reflect.DeepEqual(warm, want) {
		t.Errorf("warm = %v, want %v (launches without a sample left out)", warm, want)
	}
}

func TestCalibrationRoundAllocatesNothing(t *testing.T) {
	c := newCalibrator(2)
	if n := testing.AllocsPerRun(5, c.work[0].round); n > 0 {
		t.Errorf("a calibration round made %v allocations", n)
	}
	if k := c.scale(); !(k > 0) || math.IsInf(k, 0) {
		t.Errorf("scale() = %v", k)
	}
}
