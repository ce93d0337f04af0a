// Command benchmark is the repo's performance benchmark: one process, one
// workload (a model regime from workloads.json), one fixed program — set-up,
// then cycles of interleaved training over three restructurings, a closed-loop
// serving window and an open-loop serving window — measured from outside by
// timing calls into each layer's public functions. BENCHMARK.json at the repo
// root names the metrics, their units and, for the gated ones, the bound by
// which each may worsen; README.md beside this file is the glossary.
//
//	go run ./benchmark -list
//	go run ./benchmark -workload bn-heavy -seed 1            end-to-end metrics, gated and not
//	go run ./benchmark -workload bn-heavy -seed 1 -trace 1   per-layer metrics + Chrome trace in .bench_build/
//	go run ./benchmark -workload bn-heavy -repeat 10         noise table over seeds 1..10
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. A failed correctness check also exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"bnff/internal/obs"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 52

// setupRepeats is how many times a measured run sets the system up; setup_s
// is the median, so one slow page-fault storm does not decide it.
const setupRepeats = 3

// traceDir is where the traced run writes trace-<workload>.json: the
// git-ignored directory run.sh builds into.
const traceDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	list     bool
	repeat   int
	openRate float64

	// Not flags. The smoke test sets them to stay fast and out of the tree.
	setups   int    // 0: setupRepeats
	traceDir string // "": traceDir
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (see -list)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for parameter init, dataset, request images and the arrival schedule")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the run measures; phases scale with it")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, printing per-layer metrics and writing the spans to "+traceDir+"/trace-<workload>.json")
	fs.BoolVar(&o.list, "list", false, "print the workloads and why each exists")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed..seed+N-1, one process each) and print the noise table")
	fs.Float64Var(&o.openRate, "open-rate", 0, "override the workload's open-loop rate (calibration only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	file, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.list {
		for _, w := range file.Workloads {
			fmt.Fprintf(stdout, "%-11s %s\n", w.Name, w.Why)
		}
		fmt.Fprintf(stdout, "\n%s\n", file.Gated)
		return 0
	}
	cfg, err := file.find(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if o.repeat > 0 {
		if err := noiseTable(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	rep, err := runOnce(cfg, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported number. Names and units are BENCHMARK.json's.
type metric struct {
	name    string
	value   float64
	unit    string
	note    string    // human-readable detail: sample counts, percentiles
	samples []float64 // what the value condenses, in the order measured; printed on a line of its own

	// diagnostic marks a metric the run prints but leaves out of its JSON
	// result: the untraced run measures the throughput and latency metrics
	// at full length, but BENCHMARK.json does not gate on them (NOISE.md).
	diagnostic bool
}

// report is a finished run.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	metrics   []metric
	problems  []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// print writes every metric by name with its unit, the failure accounting,
// and last the one-line JSON result the driver reads.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		note := m.note
		if m.diagnostic {
			note = "not gated; " + note
		}
		fmt.Fprintf(w, "%-36s %14.6g %-10s %s\n", m.name, m.value, m.unit, note)
		if len(m.samples) > 0 {
			fmt.Fprintf(w, "  samples %s %.5g\n", m.name, m.samples)
		}
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.metrics {
		if !m.diagnostic {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil { // a NaN or Inf metric: say so instead of printing a broken result
		fmt.Fprintf(w, "CHECK FAILED: result does not encode: %v\n", err)
		r.Correct = false
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// tally is the failure accounting shared by every set-up of one run.
type tally struct {
	attempted, failed int
	problems          []string
}

func runOnce(cfg *workloadConfig, o options, stdout io.Writer) (*report, error) {
	procs := 2
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	clock := obs.WallClock()
	printEnvironment(stdout, cfg, o)
	if o.openRate > 0 {
		c := *cfg
		c.OpenRatePerS = o.openRate
		cfg = &c
	}
	if o.trace == 1 {
		return tracedRun(cfg, o, clock, stdout)
	}
	return measuredRun(cfg, o, clock)
}

// measuredRun is the untraced run. Its JSON result holds every end-to-end
// metric and nothing else; the throughput and latency metrics are printed
// beside them, measured at full length but not gated.
func measuredRun(cfg *workloadConfig, o options, clock func() int64) (*report, error) {
	t := &tally{}
	heap := &heapWatch{}
	setups := o.setups
	if setups == 0 {
		setups = setupRepeats
	}
	var b *bench
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := clock()
		var err error
		if b, err = setUp(cfg, o.seed, clock, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, float64(clock()-t0)/1e9)
		heap.sample()
	}
	defer b.close()

	m, err := b.runCycles(cycles, planFor(o.seconds), heap)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setupS), setupS))
	m.addTimings(rep, cfg, true)
	rep.add("peak_heap_mib", float64(heap.peakBytes)/(1<<20), "MiB", "largest HeapSys after any set-up, block or cycle")
	rep.add("serve_open_slo_share", float64(m.open.met)/float64(m.open.due), "share",
		fmt.Sprintf("%d of %d due finished within %g ms of due, all windows pooled; %d failed", m.open.met, m.open.due, cfg.OpenLimitMs, m.open.failed))
	t.finish(rep)
	return rep, nil
}

// timings is what the cycles of the measured protocol collect.
type timings struct {
	trained trainResult
	closed  closedResult
	open    openResult
}

// runCycles goes n times through train rounds → closed window → open window.
func (b *bench) runCycles(n int, plan plan, heap *heapWatch) (*timings, error) {
	m := &timings{}
	for c := 0; c < n; c++ {
		if err := b.trainRounds(&m.trained, plan.trainNs, heap); err != nil {
			return nil, err
		}
		// No forced collection before the serving windows: it hands the free
		// heap to the scavenger, and a window that then faults its pages back
		// in reads up to a third slower than one that recycles them (NOISE.md).
		b.closedLoop(&m.closed, plan.closedWarmNs, plan.closedWindowNs)
		b.openWindow(&m.open, c, b.cfg.OpenRatePerS, plan.openWindowNs, b.cfg.OpenLimitMs)
		heap.sample()
	}
	return m, nil
}

// addTimings condenses the samples into the throughput and latency metrics:
// the two throughputs are the upper quartile of their samples (see
// goodQuartile), the latency is the median of the window medians.
func (m *timings) addTimings(rep *report, cfg *workloadConfig, diagnostic bool) {
	first := len(rep.metrics)
	add := func(name string, value float64, unit, note string, samples []float64) {
		rep.metrics = append(rep.metrics, metric{name: name, value: value, unit: unit, note: note, samples: samples})
	}
	for r, rs := range restructurings {
		rates, losses := m.trained.rates[r], m.trained.losses[r]
		add("train_samples_per_s."+rs.name, goodQuartile(rates, true), "samples/s",
			fmt.Sprintf("upper quartile of %d blocks of %d steps; median %.2f, lower quartile %.2f, fastest %.2f; mean loss first block %.4f last %.4f",
				len(rates), cfg.BlockSteps, median(rates), goodQuartile(rates, false), maxOf(rates), losses[0], losses[len(losses)-1]), rates)
	}
	chunks := m.closed.chunkRps
	add("serve_closed_rps", goodQuartile(chunks, true), "req/s",
		fmt.Sprintf("upper quartile of %d chunks of a tenth of a window; median %.1f, lower quartile %.1f; whole windows %.1f; %d callers",
			len(chunks), median(chunks), goodQuartile(chunks, false), m.closed.windowRps, closedClients), chunks)
	open := &m.open
	sort.Float64s(open.latMs)
	sort.Float64s(open.lateMs)
	top := highestPercentile(open.due)
	add("serve_open_p50_ms", median(open.windowP50Ms), "ms",
		fmt.Sprintf("median of %d window medians (lower quartile %.3f, upper quartile %.3f) at %g/s; pooled: p50 %.3f p%g %.3f ms over %d due; generator p%g lateness %.3f ms",
			len(open.windowP50Ms), goodQuartile(open.windowP50Ms, false), goodQuartile(open.windowP50Ms, true), cfg.OpenRatePerS,
			percentile(open.latMs, 50), top, percentile(open.latMs, top), open.due, top, percentile(open.lateMs, top)), open.windowP50Ms)
	for i := first; i < len(rep.metrics); i++ {
		rep.metrics[i].diagnostic = diagnostic
	}
}

func (t *tally) finish(rep *report) {
	rep.Attempted, rep.Failed, rep.problems = t.attempted, t.failed, t.problems
	rep.Correct = t.failed == 0 && len(t.problems) == 0
}

// cycles is how many times a measured run goes through train rounds → closed
// window → open window. Every throughput and latency metric condenses short
// samples spread across the whole run (see goodQuartile), so a burst of
// outside noise that covers one phase of one cycle moves none of them.
const cycles = 4

// plan splits -seconds over the cycles: per cycle 58 % training (interleaved
// rounds of one block per restructuring), 22 % closed loop (a discarded warm
// stretch, then one window), 20 % open loop (one window).
type plan struct {
	trainNs, closedWarmNs, closedWindowNs, openWindowNs int64
}

func planFor(seconds float64) plan {
	cycle := seconds * 1e9 / cycles
	return plan{
		trainNs:        int64(0.58 * cycle),
		closedWarmNs:   int64(0.03 * cycle),
		closedWindowNs: int64(0.19 * cycle),
		openWindowNs:   int64(0.20 * cycle),
	}
}
