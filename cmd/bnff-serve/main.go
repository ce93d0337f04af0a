// bnff-serve serves a trained model over HTTP with dynamic micro-batching:
// single-image POST /predict requests are coalesced into mini-batches
// (dispatched when -max-batch images are queued or -max-wait expires) and run
// on a pool of replica inference executors. With -fold (the default) every
// foldable CONV→BN pair is compiled into a single biased CONV at load time,
// so serving pays no separate normalization sweep.
//
// Usage:
//
//	bnff-serve -model tiny-cnn -checkpoint model.ckpt -addr :8080
//	bnff-serve -model tiny-cnn -train-steps 30   # self-train a demo checkpoint
//
// Endpoints: POST /predict {"image":[...]} → {"logits":[...],"class":N},
// GET /healthz, GET /stats. The daemon exits cleanly on SIGINT/SIGTERM.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"bnff/internal/graph"
	"bnff/internal/models"
	"bnff/internal/scenario"
	"bnff/internal/serve"
)

func main() {
	model := flag.String("model", "tiny-cnn", fmt.Sprintf("model: one of %v (tiny-* serve quickly)", models.Names()))
	ckpt := flag.String("checkpoint", "", "checkpoint to serve; empty self-trains -train-steps steps first")
	steps := flag.Int("train-steps", 30, "self-training steps when no -checkpoint is given")
	batch := flag.Int("train-batch", 16, "self-training mini-batch size")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	maxBatch := flag.Int("max-batch", 8, "maximum requests coalesced into one inference batch")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "how long a partial batch waits for more requests (0 means the 2ms default)")
	replicas := flag.Int("replicas", 2, "replica inference workers")
	queue := flag.Int("queue", 0, "request queue depth (0: 4 x max-batch x replicas)")
	workers := flag.Int("workers", 1, "worker goroutines per replica executor")
	fold := flag.Bool("fold", true, "fold CONV-BN pairs into biased CONVs at load time")
	seed := flag.Uint64("seed", 42, "parameter and self-training seed")
	flag.Parse()

	if err := run(*model, *ckpt, *addr, *steps, *batch, *maxBatch, *replicas, *queue, *workers,
		*maxWait, *fold, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "bnff-serve:", err)
		os.Exit(1)
	}
}

func run(model, ckptPath, addr string, steps, batch, maxBatch, replicas, queue, workers int,
	maxWait time.Duration, fold bool, seed uint64) error {

	// Bind first: a port in use fails before self-training, and the banner
	// names the bound address (the real port for -addr :0).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var ckpt io.Reader
	if ckptPath != "" {
		f, err := os.Open(ckptPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ckpt = f
		fmt.Printf("serving %s from checkpoint %s\n", model, ckptPath)
	} else {
		buf, err := selfTrain(model, steps, batch, workers, seed)
		if err != nil {
			return fmt.Errorf("self-training %s: %w", model, err)
		}
		ckpt = buf
	}

	builder := func(b int) (*graph.Graph, error) { return models.Build(model, b) }
	// Monotonic nanoseconds for the engine's latency accounting; the library
	// never reads the wall clock itself (the seededrand contract).
	base := time.Now()
	eng, err := serve.Load(builder, ckpt, serve.Config{
		MaxBatch:   maxBatch,
		MaxWait:    maxWait,
		Replicas:   replicas,
		QueueDepth: queue,
		Workers:    workers,
		FoldBN:     fold,
		Seed:       seed,
		Clock:      func() int64 { return int64(time.Since(base)) },
	})
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s  (image floats: %d, classes: %d, max-batch %d, replicas %d, fold %v)\n",
		ln.Addr(), eng.ImageLen(), eng.Classes(), maxBatch, replicas, fold)
	return serve.Daemon(context.Background(), ln, eng)
}

// selfTrain produces a demo checkpoint in memory: steps SGD steps of the
// baseline model on its synthetic workload, enough for the served model to
// have meaningful running statistics. The scenario builders supply the
// trainer: seed+1 data stream, SGD(0.01, 0.9, 1e-4) at a constant rate; the
// loop below runs steps itself, so the spec's Steps stays unset. Real
// deployments pass -checkpoint from bnff-train -save.
func selfTrain(model string, steps, batch, workers int, seed uint64) (*bytes.Buffer, error) {
	sp := scenario.Spec{Name: "self-train", Model: model, Workers: workers, Seed: seed, Batch: batch}
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	tr, err := sp.NewTrainer()
	if err != nil {
		return nil, err
	}
	fmt.Printf("self-training %s: %d steps at batch %d\n", model, steps, batch)
	for i := 0; i < steps; i++ {
		res, err := tr.Step()
		if err != nil {
			return nil, err
		}
		if (i+1)%10 == 0 || i == steps-1 {
			fmt.Printf("step %3d  loss %.4f  acc %.3f\n", i+1, res.Loss, res.Accuracy)
		}
	}
	var buf bytes.Buffer
	if err := tr.Exec.Save(&buf); err != nil {
		return nil, err
	}
	return &buf, nil
}
