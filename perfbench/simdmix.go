package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/servecache"
	"repro/internal/stats"
)

// The simd-mix workload: the simd server driven closed-loop by two
// clients, each posting wait:true and sending its next request only
// after the reply. One pass starts a fresh server and runs a seeded
// script over the whole fresh-key space, so every pass and every seed
// simulates the same set of cold keys, in a different order.

// jobReq is the POST /v1/jobs body.
type jobReq struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	SMs        int    `json:"sms"`
	Sched      string `json:"sched"`
	Wait       bool   `json:"wait"`
}

func (r jobReq) String() string {
	return fmt.Sprintf("%s/sms=%d/sched=%s", r.Experiment, r.SMs, r.Sched)
}

// options are the request's experiment options, on a two-worker pool as
// `simd -workers 2` runs them.
func (r jobReq) options() experiments.Options {
	return experiments.Options{Quick: r.Quick, SMs: r.SMs, Scheduler: r.Sched, Workers: 2}
}

// hotKeys are the repeated keys. fig14a and fig14b also supply the
// accuracy figures: the served tables' cycle error and IPC correlation
// against the hardware proxy.
var hotKeys = []jobReq{
	{Experiment: "fig14a", Quick: true, SMs: sliceSMs},
	{Experiment: "fig14b", Quick: true, SMs: sliceSMs},
	{Experiment: "fig9", Quick: true},
	{Experiment: "tab1", Quick: true},
}

// freshKeys is the cold-key space: five simulating experiments × 1–8
// SMs × three warp schedulers.
func freshKeys() []jobReq {
	var ks []jobReq
	for _, e := range []string{"fig12c", "fig14a", "fig15", "fig14c", "fig16"} {
		for sms := 1; sms <= 8; sms++ {
			for _, s := range []string{"gto", "lrr", "twolevel"} {
				ks = append(ks, jobReq{Experiment: e, Quick: true, SMs: sms, Sched: s})
			}
		}
	}
	return ks
}

// item is one step of a client's script. pair ≥ 0 marks a key both
// clients post at the same moment.
type item struct {
	req  jobReq
	pair int
}

// pairedKeys is how many fresh keys both clients post together; the
// rest are posted once. With 75 % hot repeats the mix is about 75 %
// hot, 19 % fresh and 6 % paired requests.
const pairedKeys = 16

// scripts builds the two clients' seeded scripts.
func scripts(seed int64) [2][]item {
	rng := rand.New(rand.NewSource(seed))
	fresh := freshKeys()
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	pairs, singles := fresh[:pairedKeys], fresh[pairedKeys:]
	perClient := len(singles) / 2
	// Hot requests are three times the fresh ones.
	hot := 3 * (perClient + pairedKeys)
	n := perClient + pairedKeys + hot
	// The pair slots sit at the same positions in both scripts.
	pairAt := make(map[int]int)
	for j, pos := range rng.Perm(n)[:pairedKeys] {
		pairAt[pos] = j
	}
	// Pair j is posted in slot order, so both clients meet pair j at
	// the j-th pair slot.
	order := 0
	var out [2][]item
	for c := 0; c < 2; c++ {
		var rest []item
		for _, k := range singles[c*perClient : (c+1)*perClient] {
			rest = append(rest, item{req: k, pair: -1})
		}
		for i := 0; i < hot; i++ {
			rest = append(rest, item{req: hotKeys[rng.Intn(len(hotKeys))], pair: -1})
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		order = 0
		for pos := 0; pos < n; pos++ {
			if _, ok := pairAt[pos]; ok {
				out[c] = append(out[c], item{req: pairs[order], pair: order})
				order++
				continue
			}
			out[c] = append(out[c], rest[0])
			rest = rest[1:]
		}
	}
	return out
}

// server is one running simd child.
type server struct {
	cmd  *exec.Cmd
	base string
	pid  string
	// drained closes when the child's stdout reaches EOF, that is, when
	// the child has exited; cmd.Wait may only run after that.
	drained chan struct{}
}

// startServer execs simd and returns once /healthz answers.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-cachemb", "64")
	// A benchmark killed mid-run takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting simd: %w", err)
	}
	s := &server{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), drained: make(chan struct{})}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	go func() {
		io.Copy(io.Discard, r)
		close(s.drained)
	}()
	_, rest, ok := strings.Cut(line, "serving on ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("simd did not start: %q %v", line, err)
	}
	s.base = strings.Fields(rest)[0]
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("simd /healthz did not answer")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills a server that does
// not exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	s.cmd.Wait()
}

type statsz struct {
	Jobs struct {
		InFlight int64 `json:"in_flight"`
	} `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (s *server) statsz() (statsz, error) {
	var st statsz
	resp, err := client.Get(s.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is one completed request.
type reply struct {
	req    jobReq
	ms     float64
	scale  float64 // host-speed factor current when it was sent
	cached bool
	output string
	err    error
}

// client bounds every request, so a hung server fails the run instead
// of stalling it.
var client = &http.Client{Timeout: 120 * time.Second}

func post(base string, r jobReq) reply {
	r.Wait = true
	body, _ := json.Marshal(r)
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{req: r, err: err}
	}
	var st struct {
		Status string `json:"status"`
		Cached bool   `json:"cached"`
		Output string `json:"output"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil && (resp.StatusCode != http.StatusOK || st.Status != "done" || st.Output == "") {
		err = fmt.Errorf("HTTP %d status %q: %s", resp.StatusCode, st.Status, st.Error)
	}
	r.Wait = false
	return reply{req: r, ms: ms, cached: st.Cached, output: st.Output, err: err}
}

// barrier releases both clients at a paired key. The second client to
// arrive first runs meet, while no request is in flight.
type barrier struct {
	mu   sync.Mutex
	n    int
	ch   chan struct{}
	meet func()
}

func (b *barrier) wait() {
	b.mu.Lock()
	b.n++
	if b.n == 2 {
		b.meet()
		close(b.ch)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	<-b.ch
}

// mixPass is one server lifetime.
type mixPass struct {
	// wallS leaves out the calibration rounds run during the pass.
	setupS, wallS float64
	replies       []reply
	st            statsz
	hwmMB         float64
	rssKBPerKJob  float64
	inflightMax   int64
}

// calWallS is the pass's wall time scaled by its requests' median
// host-speed factor.
func (p *mixPass) calWallS() float64 {
	var ks []float64
	for _, r := range p.replies {
		ks = append(ks, r.scale)
	}
	return p.wallS * stats.Median(ks)
}

// runPass starts a server, runs both scripts against it, and stops it.
// A calibration round runs before the clients start and at every paired
// key, while both clients wait there; each request carries the factor
// current when it was sent.
func runPass(bin string, sc [2][]item, cal *calibrator, tr *tracer) (mixPass, error) {
	var p mixPass
	t0 := time.Now()
	srv, err := startServer(bin)
	p.setupS = time.Since(t0).Seconds()
	if err != nil {
		return p, err
	}
	defer srv.stop()
	rss0 := procStatusKB(srv.pid, "VmRSS")

	// The traced pass polls /statsz for the in-flight high-water mark.
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	if tr != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-pollDone:
					return
				case <-time.After(5 * time.Millisecond):
				}
				if st, err := srv.statsz(); err == nil && st.Jobs.InFlight > p.inflightMax {
					p.inflightMax = st.Jobs.InFlight
				}
			}
		}()
	}

	var mu sync.Mutex
	var calS float64 // time spent in calibration rounds
	scale := cal.scale()
	bars := make([]*barrier, pairedKeys)
	for i := range bars {
		bars[i] = &barrier{ch: make(chan struct{}), meet: func() {
			t0 := time.Now()
			k := cal.scale()
			mu.Lock()
			scale = k
			calS += time.Since(t0).Seconds()
			mu.Unlock()
		}}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, it := range sc[c] {
				if it.pair >= 0 {
					bars[it.pair].wait()
				}
				mu.Lock()
				k := scale
				mu.Unlock()
				sp := tr.start("simd.http", nil, c*len(sc[c])+i)
				r := post(srv.base, it.req)
				sp.stop()
				r.scale = k
				mu.Lock()
				p.replies = append(p.replies, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wallS = time.Since(start).Seconds() - calS
	close(pollDone)
	pollWG.Wait()

	if p.st, err = srv.statsz(); err != nil {
		return p, err
	}
	p.hwmMB = procStatusKB(srv.pid, "VmHWM") / 1024
	p.rssKBPerKJob = (procStatusKB(srv.pid, "VmRSS") - rss0) / float64(len(p.replies)) * 1e3
	return p, nil
}

// render prints a table as cmd/experiments and simd do.
func render(r jobReq) (string, error) {
	e, err := experiments.ByID(r.Experiment)
	if err != nil {
		return "", err
	}
	tb, err := e.Run(r.options())
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("# %s (%s)\n%s\n", e.Paper, e.ID, tb.String()), nil
}

// tableRows returns the whitespace-split data rows of a rendered table:
// the lines between the dashes under the header and the first note or
// blank line.
func tableRows(out string) [][]string {
	var rows [][]string
	inRows := false
	for _, line := range strings.Split(out, "\n") {
		if !inRows {
			inRows = strings.HasPrefix(line, "---")
			continue
		}
		if line == "" || strings.HasPrefix(line, "note:") {
			break
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

// servedAccuracy derives the cycle error (fig14a rows: size, sim_cycles,
// hw_cycles, …) and IPC correlation (fig14b rows: config, hw_ipc,
// sim_ipc) from the served tables.
func servedAccuracy(fig14a, fig14b string) (errPct, corrPct float64, err error) {
	var errs, hw, sim []float64
	for _, r := range tableRows(fig14a) {
		if len(r) < 3 {
			return 0, 0, fmt.Errorf("fig14a row %q", r)
		}
		s, err1 := strconv.ParseFloat(r[1], 64)
		h, err2 := strconv.ParseFloat(r[2], 64)
		if err1 != nil || err2 != nil || h == 0 {
			return 0, 0, fmt.Errorf("fig14a row %q", r)
		}
		errs = append(errs, 100*math.Abs(s-h)/h)
	}
	for _, r := range tableRows(fig14b) {
		if len(r) < 3 {
			return 0, 0, fmt.Errorf("fig14b row %q", r)
		}
		h, err1 := strconv.ParseFloat(r[1], 64)
		s, err2 := strconv.ParseFloat(r[2], 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("fig14b row %q", r)
		}
		hw, sim = append(hw, h), append(sim, s)
	}
	if len(errs) == 0 || len(hw) < 2 {
		return 0, 0, fmt.Errorf("served accuracy tables have no rows")
	}
	return stats.Mean(errs), 100 * stats.Correlation(hw, sim), nil
}

// replayCache replays the run's key sequence on an in-process
// servecache: every distinct key Put in first-seen order, then every
// request's Get. Returns the median ns per Get and per Put.
func replayCache(seq []reply, tr *tracer) (getNs, putNs float64) {
	var gets, puts []float64
	for r := 0; r < 7; r++ {
		sp := tr.start("servecache.New", nil, r)
		c := servecache.New(64 << 20)
		sp.stop()
		seen := make(map[string]bool)
		sp = tr.start("servecache.Put", nil, r)
		t0 := time.Now()
		for _, x := range seq {
			k := x.req.String()
			if !seen[k] {
				seen[k] = true
				c.Put(k, []byte(x.output))
			}
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/float64(len(seen)))
		sp.stop()
		sp = tr.start("servecache.Get", nil, r)
		t0 = time.Now()
		for _, x := range seq {
			c.Get(x.req.String())
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/float64(len(seq)))
		sp.stop()
	}
	return stats.Median(gets), stats.Median(puts)
}

// runSimdMix is the simd-mix workload body.
func runSimdMix(o opts) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	sc := scripts(o.seed)

	// Set up several times; setup_s is the median calibrated
	// exec-to-/healthz time over these and every pass's start.
	cal := newCalibrator(2)
	var setups []float64
	for i := 0; i < 15; i++ {
		k := cal.scale()
		sp := tr.start("simd.start", nil, i)
		t0 := time.Now()
		srv, err := startServer(o.simd)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds()*k)
		sp.stop()
		srv.stop()
	}

	// Passes until the run's time is used up; a traced run makes one
	// untraced pass and one traced pass.
	var plain, traced []mixPass
	var measured float64
	var allocMB, gcs []float64
	for i := 0; ; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var ptr *tracer
		if o.trace && i%2 == 1 {
			ptr = tr
		}
		k := cal.scale()
		p, err := runPass(o.simd, sc, cal, ptr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setupS*k)
		if ptr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
			runtime.ReadMemStats(&ms1)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		measured += p.wallS
		if measured >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
	}

	// Correctness: every reply succeeded and is byte-identical to the
	// first reply for its key.
	first := make(map[string]string)
	var all []reply
	for _, p := range append(append([]mixPass(nil), plain...), traced...) {
		all = append(all, p.replies...)
	}
	for _, r := range all {
		rep.attempted++
		k := r.req.String()
		if r.err != nil {
			rep.failed++
			rep.note("FAIL %s: %v", k, r.err)
			continue
		}
		if f, ok := first[k]; !ok {
			first[k] = r.output
		} else if f != r.output {
			rep.failed++
			rep.note("FAIL %s: reply differs from the first reply for its key", k)
		}
	}

	// A seeded sample of keys must equal the in-process table. The
	// traced run's sample is larger: it also times the in-process
	// simulation of the same cold keys.
	rng := rand.New(rand.NewSource(o.seed + 1))
	fresh := freshKeys()
	sample := []jobReq{hotKeys[0], fresh[rng.Intn(len(fresh))]}
	if o.trace {
		sample = sample[:0]
		for i := 0; i < 5; i++ {
			for j := 0; j < 2; j++ {
				sample = append(sample, fresh[i*24+rng.Intn(24)])
			}
		}
	}
	serverMs := make(map[string][]float64)
	for _, p := range plain {
		for _, r := range p.replies {
			if r.err == nil && !r.cached {
				serverMs[r.req.String()] = append(serverMs[r.req.String()], r.ms)
			}
		}
	}
	var inproc, overhead []float64
	for i, k := range sample {
		sp := tr.start("experiments.Run", nil, i)
		t0 := time.Now()
		out, err := render(k)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.stop()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.note("FAIL %s: in-process run: %v", k, err)
			continue
		}
		if out != first[k.String()] {
			rep.failed++
			rep.note("FAIL %s: served table differs from the in-process table", k)
			continue
		}
		inproc = append(inproc, ms)
		if s, ok := serverMs[k.String()]; ok {
			overhead = append(overhead, stats.Median(s)-ms)
		}
	}

	// Every timing is calibrated: a latency by its request's factor, a
	// pass's wall time by the median factor of its requests.
	var wall, cold, cached, slow []float64
	var jobs int
	var wallSum, hwm float64
	for _, p := range plain {
		for _, r := range p.replies {
			slow = append(slow, 1/r.scale)
		}
		w := p.calWallS()
		wall = append(wall, w)
		wallSum += w
		jobs += len(p.replies)
		hwm = math.Max(hwm, p.hwmMB)
		for _, r := range p.replies {
			if r.err != nil {
				continue
			}
			if r.cached {
				cached = append(cached, r.ms*r.scale)
			} else {
				cold = append(cold, r.ms*r.scale)
			}
		}
	}
	errPct, corrPct, err := servedAccuracy(first[hotKeys[0].String()], first[hotKeys[1].String()])
	if err != nil {
		rep.broken = true
		rep.note("FAIL %v", err)
	}
	rep.e2e["run_s"] = stats.Median(wall)
	rep.e2e["host_slowdown"] = stats.Median(slow)
	rep.e2e["jobs_per_s"] = float64(jobs) / wallSum
	rep.e2e["cold_p50_ms"] = stats.Percentile(cold, 50)
	rep.e2e["cold_p90_ms"] = stats.Percentile(cold, 90)
	rep.e2e["cached_p50_ms"] = stats.Percentile(cached, 50)
	rep.e2e["cached_p99_ms"] = stats.Percentile(cached, 99)
	rep.e2e["cycle_err_pct"] = errPct
	rep.e2e["ipc_corr_pct"] = corrPct
	rep.e2e["max_rss_mb"] = hwm
	rep.e2e["setup_s"] = stats.Median(setups)
	rep.samples = fmt.Sprintf("%d passes × %d requests; cold n=%d, cached n=%d, setups n=%d",
		len(plain), len(sc[0])+len(sc[1]), len(cold), len(cached), len(setups))

	if o.trace {
		tp := traced[0]
		hits, misses := float64(tp.st.Cache.Hits), float64(tp.st.Cache.Misses)
		distinct := make(map[string]bool)
		for _, r := range tp.replies {
			distinct[r.req.String()] = true
		}
		getNs, putNs := replayCache(tp.replies, tr)
		var rssPer []float64
		for _, p := range plain {
			rssPer = append(rssPer, p.rssKBPerKJob)
		}
		rep.layer["experiments.cold_sim_ms"] = stats.Median(inproc)
		rep.layer["simd.cold_overhead_ms"] = stats.Median(overhead)
		rep.layer["servecache.hit_ratio"] = hits / (hits + misses)
		rep.layer["servecache.get_ns"] = getNs
		rep.layer["servecache.put_ns"] = putNs
		rep.layer["simd.dup_sims"] = misses - float64(len(distinct))
		rep.layer["simd.inflight_max"] = float64(tp.inflightMax)
		rep.layer["simd.rss_kb_per_kjob"] = stats.Median(rssPer)
		rep.layer["runtime.alloc_mb"] = stats.Median(allocMB)
		rep.layer["runtime.gc_count"] = stats.Median(gcs)
		rep.layer["trace.overhead_s"] = tp.calWallS() - stats.Median(wall)
		rep.zero(gemmLayers)
		rep.tr = tr
	}
	return rep, nil
}
