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
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"bnff/internal/core"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/parallel"
	"bnff/internal/scenario"
	"bnff/internal/train"
)

func main() {
	sp, o, err := parseArgs(os.Args[1:])
	if err == nil {
		err = run(sp, o)
	}
	// -h has printed its usage already; like flag.ExitOnError, it succeeds.
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bnff-train:", err)
		os.Exit(1)
	}
}

// options are the flags that shape the run around the spec.
type options struct {
	compare, profile      bool
	every                 int
	save, load, tracePath string
}

// parseArgs resolves the flags onto a normalized spec and the run options.
func parseArgs(args []string) (scenario.Spec, options, error) {
	fs := flag.NewFlagSet("bnff-train", flag.ContinueOnError)
	scenName := fs.String("scenario", "", "start from this builtin scenario; set flags override its fields")
	model := fs.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v (tiny-* train quickly)", models.Names()))
	restructure := fs.String("restructure", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	steps := fs.Int("steps", 60, "training steps")
	batch := fs.Int("batch", 16, "mini-batch size")
	lr := fs.Float64("lr", 0.01, "learning rate, constant over the run")
	seed := fs.Uint64("seed", 42, "parameter and data seed")
	workers := fs.Int("workers", parallel.NumCPU(), "worker goroutines per executor (parallel layer execution)")
	replicas := fs.Int("replicas", 1, "data-parallel replicas; each step shards the batch and tree-all-reduces gradients")
	bnStrategy := fs.String("bn-strategy", "local", "replica BN statistics: local (per-shard ghost batches) or sync (one extra all-reduce, needs an MVF restructure)")
	var o options
	fs.BoolVar(&o.compare, "compare", false, "also train the baseline on identical batches and report parity")
	fs.IntVar(&o.every, "log-every", 10, "print metrics every N steps")
	fs.StringVar(&o.save, "save", "", "write a checkpoint to this path after training")
	fs.StringVar(&o.load, "load", "", "restore a checkpoint from this path before training")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace of the restructured run's spans to this path")
	fs.BoolVar(&o.profile, "profile", false, "print the measured per-class layer breakdown after training")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, o, err
	}
	if err := refuseNonPositive(fs, "steps", "batch", "lr", "workers", "replicas"); err != nil {
		return scenario.Spec{}, o, err
	}

	sp, err := scenario.Resolve(*scenName, scenario.Spec{
		Name:        "cli/train",
		Model:       *model,
		Restructure: *restructure,
		Steps:       *steps,
		Batch:       *batch,
		LR:          *lr,
		Seed:        *seed,
		Workers:     *workers,
		Replicas:    *replicas,
		BNStrategy:  *bnStrategy,
	}, func(sp *scenario.Spec) {
		fs.Visit(func(f *flag.Flag) {
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
			case "replicas":
				sp.Replicas = *replicas
			case "bn-strategy":
				sp.BNStrategy = *bnStrategy
			}
		})
	})
	return sp, o, err
}

// refuseNonPositive rejects any of the named numeric flags set explicitly to
// zero or below: Normalize reads a zero field as "use the default", so a
// -steps 0 would otherwise train the default number of steps.
func refuseNonPositive(fs *flag.FlagSet, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !slices.Contains(names, f.Name) {
			return
		}
		if v, _ := strconv.ParseFloat(f.Value.String(), 64); !(v > 0) {
			err = fmt.Errorf("-%s %s must be positive", f.Name, f.Value)
		}
	})
	return err
}

func run(sp scenario.Spec, o options) error {
	if o.every < 1 {
		return fmt.Errorf("-log-every %d must be at least 1", o.every)
	}
	tr, err := sp.NewTrainer()
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if o.tracePath != "" || o.profile {
		// Spans are wall-clock here: a cmd may read real time (the library
		// cannot), and a training profile is only meaningful in real time.
		tracer = obs.NewTracer(obs.WallClock())
		tr.Exec.SetTracer(tracer)
	}
	if o.load != "" {
		if err := tr.Exec.LoadFile(o.load); err != nil {
			return fmt.Errorf("load checkpoint: %w", err)
		}
		fmt.Printf("restored checkpoint %s\n", o.load)
	}
	fmt.Printf("model=%s scenario=%s batch=%d steps=%d lr=%g workers=%d\n",
		sp.Model, sp.Restructure, sp.Batch, sp.Steps, sp.LR, tr.Exec.Workers())
	if sc, err := core.ParseScenario(sp.Restructure); err == nil && sc == core.BNFFICF {
		fmt.Println("the executor runs BNFF+ICF as BNFF; ICF is priced by the cost model only")
	}
	if sp.Replicas > 1 {
		fmt.Printf("data-parallel: replicas=%d bn-strategy=%s (shard batch %d)\n",
			sp.Replicas, sp.BNStrategy, sp.Batch/sp.Replicas)
	}

	var base *train.Trainer
	if o.compare && sp.Restructure != "baseline" {
		spBase := sp
		spBase.Name = sp.Name + "/baseline-compare"
		spBase.Restructure = "baseline"
		// The baseline steps only on tr's batches (StepOn), so it shares
		// tr's dataset rather than building its own.
		base, err = spBase.NewTrainer(func(b *train.Trainer) { b.Data = tr.Data })
		if err != nil {
			return err
		}
		// The baseline starts from tr's state, loaded checkpoint included, so
		// the trajectories are comparable.
		if err := base.Exec.CopyParamsFrom(tr.Exec); err != nil {
			return err
		}
		if err := base.Exec.CopyRunningFrom(tr.Exec); err != nil {
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
			if (i+1)%o.every == 0 {
				fmt.Printf("step %4d  loss %.4f (baseline %.4f, |Δ| %.2g)  acc %.3f\n",
					i+1, res.Loss, resB.Loss, math.Abs(res.Loss-resB.Loss), res.Accuracy)
			}
			continue
		}
		if (i+1)%o.every == 0 {
			fmt.Printf("step %4d  loss %.4f  acc %.3f  lr %.4g\n", i+1, res.Loss, res.Accuracy, tr.Opt.LR)
		}
	}
	fmt.Printf("%s wall-clock: %.1f ms/step\n", sp.Restructure, float64(tScenario.Milliseconds())/float64(sp.Steps))
	if base != nil {
		fmt.Printf("baseline wall-clock: %.1f ms/step\n", float64(tBase.Milliseconds())/float64(sp.Steps))
		fmt.Printf("final mean loss: %s %.4f vs baseline %.4f\n", sp.Restructure, tr.MeanLoss(10), base.MeanLoss(10))
	}
	if o.save != "" {
		if err := tr.Exec.SaveFile(o.save); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("saved checkpoint to %s\n", o.save)
	}
	if o.profile {
		fmt.Printf("\nmeasured layer breakdown (%s, %d steps):\n", sp.Restructure, sp.Steps)
		if err := obs.LayerBreakdown(tracer.Spans()).WriteTable(os.Stdout, nil); err != nil {
			return err
		}
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
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
		fmt.Printf("trace written to %s\n", o.tracePath)
	}
	return nil
}
