// Deployment example: the full lifecycle a downstream user of this library
// walks through — train a restructured model, checkpoint it, and serve it.
// Deployment happens twice, at increasing levels of integration:
//
//  1. A bare inference executor (core.WithInference), plus the same
//     checkpoint compiled through the CONV→BN fold (core.WithFoldedBN) to
//     show folding preserves the model within float32 round-off. One executor
//     answers batch 1 and batch 4: it takes its batch size from its input.
//  2. The serving engine (serve.Load): single-image requests coalesced into
//     mini-batches by the dynamic micro-batcher, running on the folded
//     compilation — the shape a real deployment takes behind bnff-serve.
//
// It also shows that a checkpoint trained on the BNFF graph loads into a
// *baseline* graph unchanged: the restructuring never renames parameters.
//
// Run: go run ./examples/deployment
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/models"
	"bnff/internal/serve"
	"bnff/internal/tensor"
	"bnff/internal/train"
	"bnff/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const batch, classes = 16, 10

	// --- train with BNFF ---
	g, err := models.TinyDenseNet(batch)
	if err != nil {
		return err
	}
	if err := core.Restructure(g, core.BNFF.Options()); err != nil {
		return err
	}
	exec, err := core.NewExecutor(g, core.WithSeed(42))
	if err != nil {
		return err
	}
	data, err := workload.New(workload.Config{Classes: classes, Channels: 3, Size: 16, Noise: 0.25, Seed: 11})
	if err != nil {
		return err
	}
	tr, err := train.NewTrainer(exec, data,
		train.WithBatchSize(batch),
		train.WithOptimizer(train.NewSGD(0.01, 0.9, 1e-4)),
		train.WithSchedule(train.CosineDecay{Base: 0.01, Floor: 0.001, Total: 60}))
	if err != nil {
		return err
	}
	fmt.Println("training tiny-densenet with BNFF...")
	last, err := tr.Run(60)
	if err != nil {
		return err
	}
	fmt.Printf("  final training loss %.4f, accuracy %.2f\n", last.Loss, last.Accuracy)

	// --- checkpoint ---
	dir, err := os.MkdirTemp("", "bnff-deploy")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "model.bnff")
	if err := exec.SaveFile(ckpt); err != nil {
		return err
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	fmt.Printf("  checkpoint written: %s (%d bytes)\n", ckpt, fi.Size())

	// --- deploy, level 1: bare inference executors ---
	// The BNFF checkpoint loads into a *baseline* graph: restructuring never
	// renames parameters. WithInference switches BN to running stats. The
	// batch the graph is built at is only what the cost models price.
	gPlain, err := models.TinyDenseNet(1)
	if err != nil {
		return err
	}
	plain, err := core.NewExecutor(gPlain, core.WithInference())
	if err != nil {
		return err
	}
	if err := plain.LoadFile(ckpt); err != nil {
		return err
	}
	// The same checkpoint again, but compiled through the CONV→BN fold: every
	// foldable pair becomes one biased CONV, unfoldable BNs (after concats in
	// the dense blocks) keep the element-wise normalize path.
	gFold, err := models.TinyDenseNet(1)
	if err != nil {
		return err
	}
	folded, err := core.NewExecutor(gFold, core.WithFoldedBN())
	if err != nil {
		return err
	}
	if err := folded.LoadFile(ckpt); err != nil {
		return err
	}
	fmt.Printf("\nfold compilation: %d BN nodes before, %d after\n",
		gPlain.CountKinds()[graph.OpBN], gFold.CountKinds()[graph.OpBN])

	x, _, err := data.Batch(1)
	if err != nil {
		return err
	}
	yPlain, err := plain.Forward(x)
	if err != nil {
		return err
	}
	yFold, err := folded.Forward(x)
	if err != nil {
		return err
	}
	diff, _ := tensor.MaxAbsDiff(yPlain, yFold)
	fmt.Printf("folded inference agrees with unfolded within %.2g\n", diff)

	// The same executor, handed four images at once: row 0 is exactly the
	// batch-1 answer, because inference has no cross-sample dependency.
	x4, _, err := data.Batch(4)
	if err != nil {
		return err
	}
	y4, err := folded.Forward(x4)
	if err != nil {
		return err
	}
	row0 := append([]float32(nil), y4.Data[:classes]...)
	x1, err := tensor.FromSlice(x4.Data[:x.NumElems()], x.Shape()...)
	if err != nil {
		return err
	}
	y1, err := folded.Forward(x1)
	if err != nil {
		return err
	}
	same := true
	for i, v := range y1.Data {
		same = same && v == row0[i]
	}
	fmt.Printf("one executor, batch 4 then batch 1: row 0 bit-identical = %v\n", same)

	// --- deploy, level 2: the batched serving engine ---
	// serve.Load owns the whole deployment recipe: it builds folded inference
	// replicas from the checkpoint and coalesces concurrent single-image
	// requests into mini-batches. Each request's logits are bit-identical to
	// a batch-1 pass, so batching is purely a throughput decision.
	ckptFile, err := os.Open(ckpt)
	if err != nil {
		return err
	}
	defer ckptFile.Close()
	eng, err := serve.Load(models.TinyDenseNet, ckptFile, serve.Config{
		MaxBatch: 4, Replicas: 1, FoldBN: true,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	fmt.Println("\nclassifying single images through the serving engine:")
	correct := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		img, labels, err := data.Batch(1)
		if err != nil {
			return err
		}
		logits, err := eng.Predict(img.Data)
		if err != nil {
			return err
		}
		pred := argmax(logits)
		if pred == labels[0] {
			correct++
		}
		if i < 5 {
			fmt.Printf("  sample %d: true class %d, predicted %d\n", i, labels[0], pred)
		}
	}
	st := eng.Stats()
	fmt.Printf("  single-image accuracy: %d/%d  (%d requests in %d dispatched batches)\n",
		correct, trials, st.Requests, st.Batches)
	fmt.Println("-> restructuring is a training-time optimization; the model is the model.")
	return nil
}

func argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}
