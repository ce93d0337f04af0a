// Package layers implements the numeric forward and backward passes of every
// layer type that appears in the CNN models the paper studies: convolution,
// batch normalization (training semantics, with the fission sub-layers
// exposed), ReLU, pooling, fully-connected, concatenation, split, element-wise
// sum, and softmax cross-entropy.
//
// The layers are written as stateless functions over explicit tensors: a
// backward pass takes what it reads as arguments — the forward's input, batch
// statistics, or a copy of the generator a dropout drew from — and keeps
// nothing of its own. What the paper stores beside a feature map, a backward
// here derives again from the map: BN regenerates x̂ from its input, a max
// pool re-scans its input for each window's argmax, and a dropout replays
// its keep decisions. The graph executor in internal/core owns all storage,
// the per-channel statistics pairs included, and decides which buffers exist — that is exactly the degree of freedom
// the paper's restructuring exploits, so the layer API must not hide it.
//
// The convolution is written once per direction, as a per-sample window
// (window.go) that also carries whatever the restructured graph fuses around
// a CONV — the ReLU or BN+ReLU in front of it, the moments of the BN behind
// it. The zero ConvWindow is the baseline layer, and FC runs the same two
// bodies as a 1×1 convolution over a 1×1 map, so the module has one
// multiply-accumulate core (blocked.go). On CPUs with AVX2 its hot bodies,
// and every BN and ReLU sweep — normalize, input gradient, the window's tile
// fills and mask, the per-channel reductions — run as assembly lanes
// (lanes.go), one output element's chain per lane in the scalar bodies' term
// order, so both bodies store the same bits and the scalar ones stay the
// fallback and the reference (Body names the one in use). internal/kernels
// names the paper's fusions as ConvWindow literals for benchmark/ and tests
// them for equivalence against the unfused compositions of the layers here.
//
// BatchNorm has one entry point per sub-layer — ComputeStats, or Moments
// and Close (sub-BN1), which write into a statistics pair the caller owns;
// Normalize (sub-BN2); BackwardReduceFrom (sub-BN2'); BackwardInputFrom
// (sub-BN1') — and none stores x̂: the backward ones regenerate it from the
// BN input. A stored x̂, which only the forward
// window's StoreXHat still writes, is a BN input under BatchNorm.StoredXHat's
// statistics, so BackwardInput and a backward window over it run these bodies.
//
// Every MVF statistic is one Moments value — the per-(sample, channel) Σx
// and Σx² partials of one float32 sweep — and one BatchNorm.Close: the
// sample-order fold and V(X) = E(X²) − E(X)². BatchNorm.Moments takes them
// from a finished map, the forward window while it writes one; who closes
// them is the caller's choice (the executor's BN, or a data-parallel exchange
// over every replica's partials), and the bits are the same either way.
//
// Parallel execution is owned per layer descriptor: WithPool attaches an
// executor's worker pool to a Conv2D, BatchNorm, Pool2D, or FC copy, and
// every dispatch consults only that pool — there is no package-global worker
// setting on any hot path, so two executors with different settings cannot
// interfere.
//
// Work splits across the mini-batch dimension: forward outputs are disjoint
// per sample (bit-identical to serial), and backward reductions give each
// sample a private partial accumulator that is reduced in sample order
// afterwards — deterministic regardless of scheduling. Reductions whose
// serial form already accumulates one per-sample partial per target element
// (BN statistics, dγ/dβ, FC dW/dB) stay bit-identical; conv dW partials
// associate the same additions differently and land within float32
// round-off.
package layers
