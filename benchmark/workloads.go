package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/serve"
)

//go:embed workloads.json
var workloadsJSON []byte

// restructurings are the three graph forms every workload trains, in the
// order each training round runs them. The metric suffix is the name.
var restructurings = []struct {
	name string
	scen core.Scenario
}{
	{"baseline", core.Baseline},
	{"rcf", core.RCF},
	{"bnff", core.BNFF},
}

// workloadFile is workloads.json: the frozen definition of every workload.
type workloadFile struct {
	Gated       string           `json:"gated"` // which workloads BENCHMARK.json lists, and why not all
	Calibration []string         `json:"calibration"`
	Workloads   []workloadConfig `json:"workloads"`
}

// workloadConfig is one model regime. Exactly one of the model fields is set.
type workloadConfig struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	DenseNet  *models.DenseNetConfig  `json:"densenet,omitempty"`
	ResNet    *models.ResNetConfig    `json:"resnet,omitempty"`
	MobileNet *models.MobileNetConfig `json:"mobilenet,omitempty"`
	Registry  string                  `json:"registry,omitempty"`

	Batch       int `json:"batch"`
	BlockSteps  int `json:"block_steps"`  // K: Trainer.Step calls per timed training block
	WarmupSteps int `json:"warmup_steps"` // W: untimed steps per restructuring during set-up

	Serve serveShape `json:"serve"`

	OpenRatePerS float64 `json:"open_rate_per_s"` // λ, calibrated (see "calibration")
	OpenLimitMs  float64 `json:"open_limit_ms"`   // L, 3× the calibrated p50

	// The model's largest BN input that feeds ReLU → CONV, and that CONV:
	// the shapes the layers.* and kernels.* per-layer metrics are timed on.
	LayerBNInput []int     `json:"layer_bn_input"`
	LayerConv    convShape `json:"layer_conv"`
}

type serveShape struct {
	MaxBatch      int    `json:"max_batch"`
	FleetBackends int    `json:"fleet_backends,omitempty"` // 0: in-process Engine.Predict
	Policy        string `json:"policy,omitempty"`
}

// The serving settings every workload shares.
const (
	serveMaxWait    = time.Millisecond
	serveFoldBN     = true
	serveQueueDepth = 64
)

type convShape struct {
	In     int `json:"in"`
	Out    int `json:"out"`
	Kernel int `json:"kernel"`
	Stride int `json:"stride"`
	Pad    int `json:"pad"`
	Groups int `json:"groups,omitempty"`
}

func (c convShape) conv() layers.Conv2D {
	conv := layers.NewConv2D(c.In, c.Out, c.Kernel, c.Stride, c.Pad)
	conv.Groups = c.Groups
	return conv
}

func loadWorkloads() (*workloadFile, error) {
	var f workloadFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &f, nil
}

func (f *workloadFile) find(name string) (*workloadConfig, error) {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// build constructs the workload's baseline graph at a mini-batch size; it is
// also the serve.Builder the engine builds its replicas from.
func (w *workloadConfig) build(batch int) (*graph.Graph, error) {
	switch {
	case w.DenseNet != nil:
		cfg := *w.DenseNet
		cfg.Name, cfg.Batch = w.Name, batch
		return models.DenseNet(cfg)
	case w.ResNet != nil:
		cfg := *w.ResNet
		cfg.Name, cfg.Batch = w.Name, batch
		return models.ResNet(cfg)
	case w.MobileNet != nil:
		cfg := *w.MobileNet
		cfg.Name, cfg.Batch = w.Name, batch
		return models.MobileNet(cfg)
	default:
		return models.Build(w.Registry, batch)
	}
}

// engineConfig is the serve.Config every engine of this workload loads with:
// one replica on one worker, so one core computes.
func (w *workloadConfig) engineConfig(seed uint64, clock func() int64) serve.Config {
	return serve.Config{
		MaxBatch:   w.Serve.MaxBatch,
		MaxWait:    serveMaxWait,
		Replicas:   1,
		QueueDepth: serveQueueDepth,
		Workers:    1,
		FoldBN:     serveFoldBN,
		Seed:       seed,
		Clock:      clock,
	}
}
