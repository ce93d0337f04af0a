// bnff-train trains a scaled-down model numerically with a chosen
// restructuring scenario and, with -compare, runs the baseline side by side
// on identical batches to demonstrate loss parity and per-step wall-clock.
//
// The run is declared by a scenario.Spec: either assembled from the flags,
// or — with -scenario — looked up in the builtin registry, with explicitly
// set flags overriding the named spec's fields.
//
// Usage:
//
//	bnff-train -model tiny-densenet -restructure bnff -steps 100
//	bnff-train -scenario train/tiny-densenet/bnff -steps 200
//	bnff-train -model tiny-cnn -restructure bnff -compare
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"bnff/internal/core"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/parallel"
	"bnff/internal/scenario"
	"bnff/internal/train"
)

func main() {
	scenName := flag.String("scenario", "", "start from this builtin scenario; set flags override its fields")
	model := flag.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v (tiny-* train quickly)", models.Names()))
	restructure := flag.String("restructure", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	steps := flag.Int("steps", 60, "training steps")
	batch := flag.Int("batch", 16, "mini-batch size")
	lr := flag.Float64("lr", 0.01, "learning rate")
	seed := flag.Uint64("seed", 42, "parameter and data seed")
	compare := flag.Bool("compare", false, "also train the baseline on identical batches and report parity")
	every := flag.Int("log-every", 10, "print metrics every N steps")
	workers := flag.Int("workers", parallel.NumCPU(), "worker goroutines per executor (parallel layer execution)")
	save := flag.String("save", "", "write a checkpoint to this path after training")
	load := flag.String("load", "", "restore a checkpoint from this path before training")
	schedule := flag.String("schedule", "constant", "learning-rate schedule: constant, step, cosine")
	tracePath := flag.String("trace", "", "write a Chrome trace of the restructured run's spans to this path")
	profile := flag.Bool("profile", false, "print the measured per-class layer breakdown after training")
	replicas := flag.Int("replicas", 1, "data-parallel replicas; each step shards the batch and tree-all-reduces gradients")
	bnStrategy := flag.String("bn-strategy", "local", "replica BN statistics: local (per-shard ghost batches) or sync (one extra all-reduce, needs an MVF restructure)")
	flag.Parse()

	sp, err := scenario.Resolve(*scenName, scenario.Spec{
		Name:        "cli/train",
		Model:       *model,
		Restructure: *restructure,
		Steps:       *steps,
		Batch:       *batch,
		LR:          *lr,
		Seed:        *seed,
		Workers:     *workers,
		Schedule:    *schedule,
		Replicas:    *replicas,
		BNStrategy:  *bnStrategy,
	}, func(sp *scenario.Spec) {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model":
				sp.Model = *model
			case "restructure":
				sp.Restructure = *restructure
			case "steps":
				sp.Steps = *steps
			case "batch":
				sp.Batch = *batch
			case "lr":
				sp.LR = *lr
			case "seed":
				sp.Seed = *seed
			case "workers":
				sp.Workers = *workers
			case "schedule":
				sp.Schedule = *schedule
			case "replicas":
				sp.Replicas = *replicas
			case "bn-strategy":
				sp.BNStrategy = *bnStrategy
			}
		})
	})
	if err == nil {
		err = run(sp, *compare, *every, *save, *load, *tracePath, *profile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bnff-train:", err)
		os.Exit(1)
	}
}

func run(sp scenario.Spec, compare bool, every int, save, load, tracePath string, profile bool) error {
	if every < 1 {
		return fmt.Errorf("-log-every %d must be at least 1", every)
	}
	tr, err := sp.NewTrainer()
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if tracePath != "" || profile {
		// Spans are wall-clock here: a cmd may read real time (the library
		// cannot), and a training profile is only meaningful in real time.
		tracer = obs.NewTracer(obs.WallClock())
		tr.Exec.SetTracer(tracer)
	}
	if load != "" {
		if err := tr.Exec.LoadFile(load); err != nil {
			return fmt.Errorf("load checkpoint: %w", err)
		}
		fmt.Printf("restored checkpoint %s\n", load)
	}
	fmt.Printf("model=%s scenario=%s batch=%d steps=%d lr=%g schedule=%s workers=%d\n",
		sp.Model, sp.Restructure, sp.Batch, sp.Steps, sp.LR, sp.Schedule, tr.Exec.Workers())
	if sc, err := core.ParseScenario(sp.Restructure); err == nil && sc == core.BNFFICF {
		fmt.Println("the executor runs BNFF+ICF as BNFF; ICF is priced by the cost model only")
	}
	if sp.Replicas > 1 {
		fmt.Printf("data-parallel: replicas=%d bn-strategy=%s (shard batch %d)\n",
			sp.Replicas, sp.BNStrategy, sp.Batch/sp.Replicas)
	}

	var base *train.Trainer
	if compare && sp.Restructure != "baseline" {
		spBase := sp
		spBase.Name = sp.Name + "/baseline-compare"
		spBase.Restructure = "baseline"
		// The baseline steps only on tr's batches (StepOn), so it shares
		// tr's dataset rather than building its own.
		base, err = spBase.NewTrainer(func(b *train.Trainer) { b.Data = tr.Data })
		if err != nil {
			return err
		}
		// Identical starting weights so the trajectories are comparable.
		if err := tr.Exec.CopyParamsFrom(base.Exec); err != nil {
			return err
		}
	}

	// Every step draws one batch from the trainer's own dataset; under
	// -compare the baseline steps on that same batch.
	var tScenario, tBase time.Duration
	for i := 0; i < sp.Steps; i++ {
		x, labels, err := tr.Data.Batch(sp.Batch)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := tr.StepOn(x, labels)
		if err != nil {
			return err
		}
		tScenario += time.Since(t0)

		if base != nil {
			t0 = time.Now()
			resB, err := base.StepOn(x, labels)
			if err != nil {
				return err
			}
			tBase += time.Since(t0)
			if (i+1)%every == 0 {
				fmt.Printf("step %4d  loss %.4f (baseline %.4f, |Δ| %.2g)  acc %.3f\n",
					i+1, res.Loss, resB.Loss, math.Abs(res.Loss-resB.Loss), res.Accuracy)
			}
			continue
		}
		if (i+1)%every == 0 {
			fmt.Printf("step %4d  loss %.4f  acc %.3f  lr %.4g\n", i+1, res.Loss, res.Accuracy, tr.Opt.LR)
		}
	}
	fmt.Printf("%s wall-clock: %.1f ms/step\n", sp.Restructure, float64(tScenario.Milliseconds())/float64(sp.Steps))
	if base != nil {
		fmt.Printf("baseline wall-clock: %.1f ms/step\n", float64(tBase.Milliseconds())/float64(sp.Steps))
		fmt.Printf("final mean loss: %s %.4f vs baseline %.4f\n", sp.Restructure, tr.MeanLoss(10), base.MeanLoss(10))
	}
	if save != "" {
		if err := tr.Exec.SaveFile(save); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("saved checkpoint to %s\n", save)
	}
	if profile {
		fmt.Printf("\nmeasured layer breakdown (%s, %d steps):\n", sp.Restructure, sp.Steps)
		if err := obs.LayerBreakdown(tracer.Spans()).WriteTable(os.Stdout, nil); err != nil {
			return err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, tracer.Spans(), 1); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
	return nil
}
