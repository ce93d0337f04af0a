package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bnff/internal/graph"
	"bnff/internal/obs"
)

func TestPoissonScheduleIsPureFunctionOfSeed(t *testing.T) {
	const rate, dur = 500.0, int64(2e9)
	a := poissonSchedule(7, rate, dur, requestImages)
	b := poissonSchedule(7, rate, dur, requestImages)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if c := poissonSchedule(8, rate, dur, requestImages); reflect.DeepEqual(a.dueNs, c.dueNs) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n, want := float64(len(a.dueNs)), rate*float64(dur)/1e9; math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals in %v s at %v/s, want about %v", n, dur/1e9, rate, want)
	}
	for i, due := range a.dueNs {
		if due < 0 || due >= dur || (i > 0 && due < a.dueNs[i-1]) {
			t.Fatalf("slot %d due at %d: not ascending inside [0, %d)", i, due, dur)
		}
		if img := a.image[i]; img < 0 || img >= requestImages {
			t.Fatalf("slot %d carries image %d", i, img)
		}
	}
}

// A system slower than the offered rate makes every sender run late. Latency
// must then count from when each request was due, so it exceeds service time
// by the lateness; timed from the send it would read as the service time.
func TestOpenLoopTimesFromDueWhenSenderIsLate(t *testing.T) {
	const service = 10 * time.Millisecond
	refs := make([][]float32, requestImages)
	for i := range refs {
		refs[i] = []float32{float32(i)}
	}
	b := &bench{
		cfg: &workloadConfig{}, seed: 1, clock: obs.WallClock(), tally: &tally{},
		images: refs, refs: refs,
		predict: func(i int) ([]float32, error) { time.Sleep(service); return refs[i], nil },
	}
	// 8 senders × 1/10 ms = 800 requests/s of capacity against 2000/s offered.
	var res openResult
	for w := 0; w < 2; w++ {
		b.openWindow(&res, w, 2000, int64(50*time.Millisecond), 1e6)
	}
	if res.due < 100 || b.attempted != res.due || b.failed != 0 || len(res.windowP50Ms) != 2*openThirds {
		t.Fatalf("%d due, %d attempted, %d failed, %d window medians", res.due, b.attempted, b.failed, len(res.windowP50Ms))
	}
	if res.met != res.due {
		t.Errorf("%d of %d due met a limit of 1000 s: the share is pooled over all windows and nothing failed", res.met, res.due)
	}
	sort.Float64s(res.latMs)
	sort.Float64s(res.lateMs)
	serviceMs := float64(service) / 1e6
	late := res.lateMs[len(res.lateMs)-1]
	if late < serviceMs {
		t.Fatalf("generator at most %.1f ms late; the test needs an overloaded system", late)
	}
	if worst := res.latMs[len(res.latMs)-1]; worst < late+serviceMs {
		t.Errorf("worst latency %.1f ms < lateness %.1f ms + service %.1f ms: not timed from the due time", worst, late, serviceMs)
	}
	if med := median(res.latMs); med < 2*serviceMs {
		t.Errorf("median latency %.1f ms reads like the service time %.1f ms", med, serviceMs)
	}
	if res.backlogEnd == 0 {
		t.Error("no backlog reported at the end of an overloaded window")
	}
}

// The closed loop cuts a window's answers into equal-count chunks and rates
// each over the time it took, so the chunk rates read the same as the window.
func TestClosedLoopChunksAWindowsAnswers(t *testing.T) {
	const service = 2 * time.Millisecond
	refs := [][]float32{{0}}
	for len(refs) < requestImages {
		refs = append(refs, refs[0])
	}
	b := &bench{
		cfg: &workloadConfig{}, seed: 1, clock: obs.WallClock(), tally: &tally{},
		images: refs, refs: refs,
		predict: func(i int) ([]float32, error) { time.Sleep(service); return refs[i], nil },
	}
	var res closedResult
	b.closedLoop(&res, int64(10*time.Millisecond), int64(150*time.Millisecond))
	if len(res.chunkRps) != closedChunks || len(res.windowRps) != 1 || b.failed != 0 {
		t.Fatalf("%d chunks, %d windows, %d failed", len(res.chunkRps), len(res.windowRps), b.failed)
	}
	ceiling := closedClients / service.Seconds()
	if w := res.windowRps[0]; w < ceiling/4 || w > ceiling {
		t.Errorf("window rate %.0f/s with %d callers and %v of service", w, closedClients, service)
	}
	if m := median(res.chunkRps); m < res.windowRps[0]*0.8 || m > ceiling*1.05 {
		t.Errorf("median chunk rate %.0f/s, the window's %.0f/s, ceiling %.0f/s", m, res.windowRps[0], ceiling)
	}
}

func TestPercentileRuleAndMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v (at least 10 samples beyond it)", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p50, p99 := percentile(sorted, 50), percentile(sorted, 99); p50 != 50 || p99 != 99 {
		t.Errorf("percentile of 1..100: p50 %v p99 %v", p50, p99)
	}
	if m := median([]float64{42.5, 29.8, 43.1}); m != 42.5 {
		t.Errorf("median of three rounds = %v: one slow round must not move it", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	// Twelve blocks, five of them slowed: the good quartile is the fourth
	// best sample, not the best, and no slowed one.
	rates := []float64{40, 41, 29, 42, 30, 43, 28, 44, 31, 45, 27, 46}
	if up, down := goodQuartile(rates, true), goodQuartile(rates, false); up != 43 || down != 29 {
		t.Errorf("good quartile of twelve = %v (higher is better), %v (lower is better); want 43, 29", up, down)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
}

// workloads.json must name the shapes it says it names: the largest BN input
// that feeds ReLU → CONV in each model, and that CONV.
func TestWorkloadsFileMatchesTheModels(t *testing.T) {
	file, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := range file.Workloads {
		w := &file.Workloads[i]
		names = append(names, w.Name)
		if w.Why == "" || w.OpenRatePerS <= 0 || w.OpenLimitMs <= 0 || w.WarmupSteps < 1 || w.BlockSteps < 1 {
			t.Errorf("%s: incomplete entry %+v", w.Name, *w)
		}
		g, err := w.build(w.Batch)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		consumers := g.Consumers()
		largest, found := 0, false
		for _, n := range g.Live() {
			if n.Kind != graph.OpBN || len(consumers[n.ID]) != 1 || consumers[n.ID][0].Kind != graph.OpReLU {
				continue
			}
			for _, c := range consumers[consumers[n.ID][0].ID] {
				if c.Kind != graph.OpConv {
					continue
				}
				size := n.InShape(0).NumElems()
				if size > largest {
					largest, found = size, false
				}
				if size == largest && reflect.DeepEqual([]int(n.InShape(0)), w.LayerBNInput) &&
					reflect.DeepEqual(*c.Conv, w.LayerConv.conv()) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: layer_bn_input %v + layer_conv %+v is not the model's largest BN → ReLU → CONV", w.Name, w.LayerBNInput, w.LayerConv)
		}
	}
	if want := []string{"bn-heavy", "conv-heavy", "depthwise", "tiny-fleet"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

// benchmarkFile is ../BENCHMARK.json, the contract later changes are held to.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smoke runs tiny-fleet (two warm-up steps, short phases) through runOnce in
// about half a second and returns the parsed result line.
func smoke(t *testing.T, trace int) *result {
	t.Helper()
	file, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := file.find("tiny-fleet")
	if err != nil {
		t.Fatal(err)
	}
	quick := *cfg
	quick.WarmupSteps, quick.BlockSteps = 2, 2
	quick.OpenLimitMs = 1000 // the limit is calibrated for an unloaded machine, not for -race
	var stdout bytes.Buffer
	rep, err := runOnce(&quick, options{seed: 3, seconds: 0.4, setups: 1, trace: trace, traceDir: t.TempDir()}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	rep.print(&stdout)
	// Either run prints the throughput and latency metrics by name; only the
	// traced one carries them in its result.
	for _, want := range []string{"env go=", "num_cpu=", "gomaxprocs=", "ops_attempted", "ops_failed 0",
		"train_samples_per_s.baseline", "train_samples_per_s.rcf", "train_samples_per_s.bnff", "serve_closed_rps", "serve_open_p50_ms"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	res, err := lastLineResult(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res
}

// The smoke run passes its checks and prints exactly the metrics
// BENCHMARK.json promises, with its units: end to end untraced, per layer traced.
func TestSmokeRunPrintsWhatBenchmarkFilePromises(t *testing.T) {
	file := readBenchmarkFile(t)
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", file.RunSeconds, defaultSeconds)
	}
	for _, c := range []struct {
		trace int
		want  []struct{ Name, Unit string }
	}{{0, file.EndToEnd}, {1, file.PerLayer}} {
		c := c
		t.Run(fmt.Sprintf("trace=%d", c.trace), func(t *testing.T) {
			t.Parallel() // nothing in the smoke run is held to a time
			res := smoke(t, c.trace)
			if len(res.Metrics) != len(c.want) {
				t.Errorf("result holds %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(c.want))
			}
			for _, m := range c.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case c.trace == 0 && !(got.Value > 0):
					t.Errorf("%s = %v: an end-to-end metric is never 0", m.Name, got.Value)
				}
			}
		})
	}
	workloads, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range file.Workloads {
		if _, err := workloads.find(w.Name); err != nil {
			t.Errorf("BENCHMARK.json lists workload %q: %v", w.Name, err)
		}
	}
}
