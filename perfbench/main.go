// Command perfbench is platoonsec's benchmark: one command that runs a
// named workload, checks that every output is correct, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced pass) as one JSON object on its last line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tables|world|platoond --seed N --seconds S --trace 0|1
//
// Workloads (README.md in this directory has the full rationale):
//
//	tables    the Table II sweep, Table III matrix and E5 jamming curve,
//	          closed loop through scenario.SweepReport on 2 workers
//	world     the 1000-platoon interchange-jamming world, closed loop,
//	          one run at a time with 2 shard workers
//	platoond  an in-process platoond on loopback under an open-loop
//	          Poisson schedule at a base and a peak rate
//
// All layer measurement happens from outside the program: the
// benchmark times its own calls into each layer's public functions,
// reads the counters, traces and timelines the program exports, and
// samples its own CPU profile.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what every workload's setup receives.
type config struct {
	seed    int64
	seconds time.Duration
	scratch string
}

// workload is one named benchmark workload. setup builds everything the
// timed phase needs (inputs, servers, warm caches), with the program's
// own tracing on or off.
type workload struct {
	name  string
	setup func(cfg config, traced bool) (session, error)
}

// session is one set-up workload instance: run is the timed phase,
// verify the untimed correctness check of what run produced.
type session interface {
	run(d time.Duration) (*pass, error)
	verify(p *pass) error
	close()
}

// pass is what one timed phase produced. Workloads fill the counts,
// the output digests and their own metrics; the harness adds process
// CPU, allocations, peak heap and the CPU-profile layer shares.
type pass struct {
	attempted, failed int
	ops               int           // completed operations, for per-op figures
	wall              time.Duration // timed wall time
	digests           []string      // one per output, in index order
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string

	cpu      time.Duration
	allocs   uint64
	peakHeap uint64
	gcFrac   float64
	shares   map[string]float64
}

func (p *pass) failf(format string, args ...any) {
	p.failed++
	if p.failed <= 5 {
		p.notes = append(p.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{"tables", setupTables},
	{"world", setupWorld},
	{"platoond", setupPlatoond},
}

// setupRepeats is how many times a trace-0 run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tables, world or platoond")
	seed := fs.Int64("seed", 1, "workload seed; generates every input")
	seconds := fs.Float64("seconds", 30, "timed seconds per pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and print per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for temporary files")
	golden := fs.String("write-golden", "", "recompute the expected output digests of the input pools into FILE and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload tables|world|platoond, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), scratch: *scratch}

	res, err := measure(*wl, cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the untraced pass (setting up several times, for
// setup_s) and, when traced, a second pass with the program's tracing
// on and the CPU profile running.
func measure(wl workload, cfg config, traced bool, out io.Writer) (*result, error) {
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	var sess session
	for i := 0; i < repeats; i++ {
		if sess != nil {
			sess.close()
		}
		t0 := time.Now()
		s, err := wl.setup(cfg, false)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sess = s
	}
	plain, err := timedPass(sess, cfg.seconds, false)
	sess.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	report(out, wl.name+" (untraced)", plain)

	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	if !traced {
		emit(res, out, endToEnd, endToEndOf(plain, median(setups)))
		fmt.Fprintf(out, "  %-32s %14.6g ratio (failed %d of %d attempted)\n", "fail_frac",
			float64(plain.failed)/float64(max(plain.attempted, 1)), plain.failed, plain.attempted)
		res.Correct = plain.failed == 0
		return res, nil
	}

	sess, err = wl.setup(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", wl.name, err)
	}
	tr, err := timedPass(sess, cfg.seconds, true)
	sess.close()
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", wl.name, err)
	}
	report(out, wl.name+" (traced)", tr)
	res.Attempted += tr.attempted
	res.Failed += tr.failed

	// Observability must change no bytes: every output the traced pass
	// shares with the untraced one must digest identically.
	for i := 0; i < min(len(tr.digests), len(plain.digests)); i++ {
		if tr.digests[i] != plain.digests[i] {
			res.Failed++
			fmt.Fprintf(out, "FAIL: traced output %d digest differs from the untraced pass\n", i)
			break
		}
	}

	layer := map[string]float64{}
	for k, v := range tr.layer {
		layer[k] = v
	}
	for l, v := range tr.shares {
		layer[l+".cpu_frac"] = v
	}
	sec, err := securityReplay(cfg.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range sec {
		layer[k] = v
	}
	layer["runtime.gc_cpu_frac"] = tr.gcFrac
	layer["runtime.allocs_per_op"] = float64(tr.allocs) / float64(max(tr.ops, 1))
	if lag, ok := plain.layer["loadgen.lag_p99_ms"]; ok {
		layer["loadgen.lag_p99_ms"] = lag // the untraced pass is the one whose latencies are reported
	}
	layer["trace.overhead_frac"] = cpuPerOp(tr)/cpuPerOp(plain) - 1
	emit(res, out, perLayer, layer)
	res.Correct = res.Failed == 0
	return res, nil
}

// emit records every metric in defs (0 when values lacks it) in the
// result and prints it with its unit. A non-finite value, which only a
// failed request can cause, is clamped so the result stays valid JSON.
func emit(res *result, out io.Writer, defs []metricDef, values map[string]float64) {
	for _, m := range defs {
		v := values[m.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", m.Name, v, m.Unit)
	}
}

// endToEndOf assembles the end-to-end metrics of an untraced pass.
func endToEndOf(p *pass, setupS float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":       setupS,
		"cpu_ms_per_op": cpuPerOp(p),
		"peak_heap_mb":  float64(p.peakHeap) / (1 << 20),
	}
	for k, v := range p.e2e {
		m[k] = v
	}
	return m
}

func cpuPerOp(p *pass) float64 {
	return float64(p.cpu.Microseconds()) / 1e3 / float64(max(p.ops, 1))
}

func report(out io.Writer, title string, p *pass) {
	fmt.Fprintf(out, "%s: %d ops in %v, %d attempted, %d failed\n",
		title, p.ops, p.wall.Round(time.Millisecond), p.attempted, p.failed)
	for _, n := range p.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
}

// timedPass runs one timed phase with process-level accounting around
// it, then verifies its outputs outside the timed window.
func timedPass(sess session, d time.Duration, traced bool) (*pass, error) {
	runtime.GC()
	hs := startHeapSampler()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			hs.stop()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	before := readCounters()
	p, err := sess.run(d)
	after := readCounters()
	if traced {
		pprof.StopCPUProfile()
	}
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	p.cpu = after.cpu - before.cpu
	p.allocs = after.allocs - before.allocs
	p.peakHeap = peak
	if busy := (after.cpuTotal - after.cpuIdle) - (before.cpuTotal - before.cpuIdle); busy > 0 {
		p.gcFrac = (after.cpuGC - before.cpuGC) / busy
	}
	if traced {
		prof, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.shares = prof.layerShares()
	}
	if err := sess.verify(p); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return p, nil
}

// counters is a snapshot of process-wide accounting.
type counters struct {
	cpu                      time.Duration // user+sys
	allocs                   uint64
	cpuGC, cpuIdle, cpuTotal float64 // runtime/metrics CPU classes, seconds
}

var counterSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() counters {
	var ru syscall.Rusage
	var c counters
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(counterSamples))
	for i, n := range counterSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	c.allocs = s[0].Value.Uint64()
	c.cpuGC, c.cpuIdle, c.cpuTotal = s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()
	return c
}

// heapSampler polls the in-use heap while a pass runs and keeps the
// peak. runtime/metrics reads do not stop the world.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
