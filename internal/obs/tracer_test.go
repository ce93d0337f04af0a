package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.Begin(); got != 0 {
		t.Fatalf("nil Begin = %d, want 0", got)
	}
	tr.End("x", "c", "fwd", 1, 0)
	tr.EndArgs("x", "c", "fwd", 1, 0, nil)
	tr.Reset()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	allocs := testing.AllocsPerRun(100, func() {
		start := tr.Begin()
		tr.End("node", "CONV/FC", "fwd", 1, start)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocates %.1f per op, want 0", allocs)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(StepClock(10))
	s := tr.Begin()
	tr.End("conv1", "CONV/FC", "fwd", 1, s)
	s = tr.Begin()
	tr.EndArgs("bn1", "BN", "bwd", 2, s, map[string]float64{"items": 4})
	spans := tr.Spans()
	want := []Span{
		{Name: "conv1", Cat: "CONV/FC", Dir: "fwd", TID: 1, Start: 10, Dur: 10},
		{Name: "bn1", Cat: "BN", Dir: "bwd", TID: 2, Start: 30, Dur: 10, Args: map[string]float64{"items": 4}},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tr.Len())
	}
}

func TestTracerDeterministicUnderStepClock(t *testing.T) {
	record := func() []Span {
		tr := NewTracer(StepClock(5))
		for i := 0; i < 3; i++ {
			s := tr.Begin()
			tr.End("n", "BN", "fwd", 3, s)
		}
		return tr.Spans()
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverge: %+v vs %+v", a, b)
	}
}

func TestTracerClampsNegativeDur(t *testing.T) {
	calls := 0
	// A clock that runs backwards on its second read.
	back := func() int64 {
		calls++
		if calls == 1 {
			return 100
		}
		return 50
	}
	tr := NewTracer(back)
	s := tr.Begin()
	tr.End("n", "c", "", 0, s)
	if got := tr.Spans()[0].Dur; got != 0 {
		t.Fatalf("Dur = %d, want clamped 0", got)
	}
}

func TestNilClockDefaultsToZero(t *testing.T) {
	tr := NewTracer(nil)
	s := tr.Begin()
	tr.End("n", "c", "", 0, s)
	sp := tr.Spans()[0]
	if sp.Start != 0 || sp.Dur != 0 {
		t.Fatalf("span = %+v, want zero times", sp)
	}
}

func TestTracerConcurrentAppendIsSafe(t *testing.T) {
	tr := NewTracer(StepClock(1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.Begin()
				tr.End("n", "c", "", 0, s)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
}

func TestStepClockStride(t *testing.T) {
	c := StepClock(7)
	if a, b := c(), c(); a != 7 || b != 14 {
		t.Fatalf("StepClock(7) reads = %d, %d; want 7, 14", a, b)
	}
	z := StepClock(0) // non-positive stride defaults to 1
	if a := z(); a != 1 {
		t.Fatalf("StepClock(0) first read = %d, want 1", a)
	}
}

func TestParseClock(t *testing.T) {
	step, err := ParseClock("step")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := step(), step(); a != 1000 || b != 2000 {
		t.Errorf("step clock reads = %d, %d; want 1000, 2000", a, b)
	}
	if _, err := ParseClock("wall"); err != nil {
		t.Error(err)
	}
	if _, err := ParseClock("sundial"); err == nil {
		t.Error("unknown clock accepted")
	}
}

func TestWallClockMonotonicNonNegative(t *testing.T) {
	c := WallClock()
	a := c()
	b := c()
	if a < 0 || b < a {
		t.Fatalf("wall clock not monotonic: %d then %d", a, b)
	}
}
