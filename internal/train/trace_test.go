package train

import (
	"testing"

	"bnff/internal/core"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/workload"
)

func TestWithTracerRecordsStepSpans(t *testing.T) {
	g, err := models.TinyCNN(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.NewExecutor(g, core.WithSeed(3), core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	data, err := workload.New(workload.Config{Classes: 4, Channels: 3, Size: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.StepClock(10))
	tr, err := NewTrainer(exec, data, WithBatchSize(4), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	if exec.Tracer() != tracer {
		t.Fatal("WithTracer did not reach the executor")
	}
	if _, err := tr.Run(2); err != nil {
		t.Fatal(err)
	}
	var steps, passes int
	for _, s := range tracer.Spans() {
		switch s.Cat {
		case obs.CatStep:
			steps++
			if s.TID != obs.TIDStep || s.Args["batch"] != 4 {
				t.Fatalf("step span = %+v", s)
			}
		case obs.CatPass:
			passes++
		}
	}
	if steps != 2 {
		t.Fatalf("step spans = %d, want 2", steps)
	}
	if passes != 4 { // one forward + one backward envelope per step
		t.Fatalf("pass spans = %d, want 4", passes)
	}
}
