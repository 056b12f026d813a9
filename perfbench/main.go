// Command perfbench is the repository's benchmark. It runs one named
// workload for a given time, checks every output it produces, and prints
// its metrics; the last line of standard output is the JSON result.
//
//	perfbench -workload tc-gemm -seed 1 -seconds 30 -trace 0 -simd path/to/simd
//
// With -trace 0 the result holds the end-to-end metrics BENCHMARK.json
// names; with -trace 1 it holds the per-layer metrics of a traced run,
// and the spans are written under -out. README.md describes the
// workloads and metrics. Use run.sh, which builds this command and the
// simd server from the checkout first.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// extraUnits are the units of the end-to-end metrics that are printed
// but not listed in BENCHMARK.json (README.md says why).
var extraUnits = map[string]string{"sim_kwips": "kwarp-inst/s", "cached_p99_ms": "ms", "fail_ratio": "ratio",
	"host_slowdown": "x"}

// opts are the command-line settings shared by every workload.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	simd    string
}

// report is what a workload measured.
type report struct {
	e2e, layer        map[string]float64
	attempted, failed int
	// broken marks a failed whole-run check (as opposed to one failed
	// operation): the result is then incorrect even if no op failed.
	broken  bool
	notes   []string
	samples string
	tr      *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// gemmLayers and simdLayers are the per-layer metrics only one kind of
// workload exercises. The other kind reports them as 0: its run makes no
// call into that layer.
var (
	gemmLayers = []string{"kernels.build_ms", "cuda.xfer_ms", "ptx.functional_s", "ptx.ns_per_thread_inst",
		"wmma.mma_ns", "wmma.est_s", "gpu.run_s", "gpu.model_s", "gpu.ns_per_warp_inst", "gpu.ns_per_cycle",
		"gpu.cycles", "gpu.warp_insts", "gpu.thread_insts", "gpu.ipc", "tcore.tensor_ops",
		"mem.dram_accesses", "mem.shared_conflicts", "mem.l1_hit_rate", "mem.l2_hit_rate"}
	simdLayers = []string{"experiments.cold_sim_ms", "simd.cold_overhead_ms", "servecache.hit_ratio",
		"servecache.get_ns", "servecache.put_ns", "simd.dup_sims", "simd.inflight_max", "simd.rss_kb_per_kjob"}
)

// zero reports metrics of a layer the workload does not call as 0.
func (r *report) zero(names []string) {
	for _, n := range names {
		r.layer[n] = 0
	}
}

func (r *report) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its body.
var workloads = map[string]func(opts) (*report, error){
	"tc-gemm":   func(o opts) (*report, error) { return runGEMM(tcCases(), o) },
	"simt-gemm": func(o opts) (*report, error) { return runGEMM(simtCases(), o) },
	"simd-mix":  runSimdMix,
}

// benchSpec is the part of BENCHMARK.json the command reads: the
// metric names the result line must carry.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

// unit returns a metric's unit.
func (bs *benchSpec) unit(name string) string {
	for _, m := range append(append([]specMetric(nil), bs.EndToEnd...), bs.PerLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return extraUnits[name]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "workload name: tc-gemm, simt-gemm or simd-mix")
	seed := fset.Int64("seed", 1, "seed every input is generated from")
	seconds := fset.Float64("seconds", 30, "measured time per run")
	trace := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	simd := fset.String("simd", ".bench_build/bin/simd", "simd binary (simd-mix)")
	out := fset.String("out", ".bench_build/out", "directory for span and result files")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	body, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (tc-gemm, simt-gemm, simd-mix), -seconds > 0, -trace 0|1\n")
		return 2
	}
	var bs benchSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	} else if err := json.Unmarshal(b, &bs); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}

	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, simd: *simd}
	rep, err := body(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.e2e["fail_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	meta := runMeta(*workload, *seed, o)
	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	if rep.tr != nil {
		if err := rep.tr.write(filepath.Join(*out, "spans-"+tag+".json")); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		self := rep.tr.selfTimes()
		total := printSelfTimes(stdout, self)
		rep.layer["trace.bench_self_pct"] = 100 * self["bench"] / total
	}

	// The human-readable lines: every metric this workload measured.
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	fmt.Fprintf(stdout, "# %s seed %d: %s\n", *workload, *seed, rep.samples)
	printMetrics(stdout, &bs, "e2e", rep.e2e)
	if o.trace {
		printMetrics(stdout, &bs, "layer", rep.layer)
	}

	names, from := bs.EndToEnd, rep.e2e
	if o.trace {
		names, from = bs.PerLayer, rep.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: rep.failed == 0 && !rep.broken, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := from[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metric{v, m.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation attempted")
		return 1
	}

	// Keep every result, with its metadata, for the trajectory.
	all := map[string]any{"meta": meta, "result": res, "e2e": rep.e2e, "layer": rep.layer}
	if err := appendJSONL(filepath.Join(*out, "results.jsonl"), all); err != nil {
		fmt.Fprintln(stderr, "perfbench: recording the result:", err)
	}
	mb, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(stdout, string(mb))
	b, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(b))
	return 0
}

// appendJSONL appends v as one JSON line to the file at path.
func appendJSONL(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(w io.Writer, bs *benchSpec, kind string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-5s %-24s %14.6g %s\n", kind, n, m[n], bs.unit(n))
	}
}

// printSelfTimes prints each layer's self time and its share, and
// returns the total.
func printSelfTimes(w io.Writer, self map[string]float64) float64 {
	var total float64
	layers := make([]string, 0, len(self))
	for l, s := range self {
		layers = append(layers, l)
		total += s
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self  %-24s %10.4f s %6.2f%%\n", l, self[l], 100*self[l]/total)
	}
	return total
}

// runMeta describes the host and the code a result was measured on.
func runMeta(workload string, seed int64, o opts) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured code: the git commit when the checkout
// is a repository, otherwise a digest of every Go source and module file.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// procStatusKB reads one "VmXXX:  N kB" field of /proc/<pid>/status.
func procStatusKB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb
		}
	}
	return math.NaN()
}

// selfHWM is this process's peak RSS in MiB.
func selfHWM() float64 { return procStatusKB("self", "VmHWM") / 1024 }
