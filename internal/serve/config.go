package serve

import (
	"fmt"
	"time"
)

// Config parameterizes an Engine. The zero value is usable: Load applies the
// defaults below. The engine makes its own metrics registry, read through
// Engine.Metrics and exposed by GET /metrics.
type Config struct {
	// MaxBatch caps how many queued single-image requests coalesce into one
	// inference mini-batch. Default 8.
	MaxBatch int

	// MaxWait bounds how long a replica holds a partial batch open waiting
	// for more requests once it has at least one. Zero means the default,
	// 2ms; negative values are rejected.
	MaxWait time.Duration

	// Replicas is the number of independent inference workers draining the
	// queue. Each owns its executors, so replicas never contend on model
	// state. Default 1.
	Replicas int

	// QueueDepth bounds the request queue; a Predict against a full queue
	// returns ErrOverloaded immediately (load shedding, HTTP 429). Default
	// 4 × MaxBatch × Replicas.
	QueueDepth int

	// Workers is each replica executor's worker-pool size (core.WithWorkers).
	// Default 1: replica-level parallelism usually beats intra-batch
	// parallelism at serving batch sizes.
	Workers int

	// FoldBN compiles every foldable CONV→BN pair into a single biased CONV
	// at load time (core.WithFoldedBN). Default off.
	FoldBN bool

	// Seed is the parameter-initialization seed for the replica executors.
	// The checkpoint overwrites every parameter, so it only matters for
	// error paths; it exists so engine construction is fully deterministic.
	Seed uint64

	// Clock, when non-nil, supplies monotonic nanoseconds for request
	// latency accounting. Library code must not read the wall clock (the
	// seededrand contract), so the daemon injects one from cmd/ and tests
	// inject deterministic fakes; with a nil Clock all latencies record as
	// zero and the quantiles read zero.
	Clock func() int64
}

// withDefaults returns the config with unset fields defaulted.
func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch * c.Replicas
	}
	return c
}

func (c Config) validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch %d < 1", c.MaxBatch)
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("serve: MaxWait %v < 0", c.MaxWait)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("serve: Replicas %d < 1", c.Replicas)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: QueueDepth %d < 1", c.QueueDepth)
	}
	if c.Workers < 1 {
		return fmt.Errorf("serve: Workers %d < 1", c.Workers)
	}
	return nil
}
