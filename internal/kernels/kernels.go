// Package kernels names four of the fused kernels that BN Fission-n-Fusion
// substitutes for baseline layer sequences, for benchmark/'s per-layer
// timings, which call them by these names. Each is a layers.ConvWindow
// literal: the convolution has one per-sample window per direction
// (internal/layers/window.go), and a fusion is a choice of what runs inside
// it — never a kernel of its own. The executor in internal/core does not go
// through this package: it builds its windows itself, from the node.
//
//   - ConvForwardStats — CONV1-(sub-BN1): as each sample's ofmap is written,
//     its per-channel Σx and Σx² partials are taken from the cache-resident
//     sample; the partials are reduced in sample order and closed with the MVF
//     identity V(X) = E(X²) − E(X)². One sweep instead of three (paper
//     Figure 5a: O1, I2, I3 → O1').
//
//   - FusedBNReLUConvForward — (sub-BN2)-ReLU-CONV2: each sample is
//     normalized and rectified into a cache-resident tile the convolution
//     reads as its ifmap. The normalized map x̂ is written once (Figure 5a's
//     O2') for FusedConvBackwardReLUBNReduce to re-read; the rectified batch
//     tensor never exists.
//
//   - ReLUConvForward — RCF alone: the same window with a rectify-only fill,
//     for the RCF-only evaluation scenario.
//
//   - FusedConvBackwardReLUBNReduce — CONV2-ReLU-(sub-BN2') backward: per
//     sample, the window regenerates CONV2's ifmap z = ReLU(γx̂+β) from x̂ into
//     a tile (z is never stored, and no feature-map-sized scratch holds it),
//     runs the convolution's backward, masks dz with the tile, and takes the
//     sample's dγ/dβ partials.
//
// The window hands its statistics back as unclosed layers.Moments, and
// whoever owns the BN closes them: ConvForwardStats and the executor with
// BatchNorm.Close, ddp sync-BN with one fold over every replica's partials.
//
// The two BN windows here keep x̂ (the forward's ConvWindow.StoreXHat),
// because benchmark/ times these names. The executor stores no x̂: its fused
// windows take the BN input x, and the backward window and the statistics
// producer's sub-BN1' (BatchNorm.BackwardInputFrom) regenerate x̂ per sample
// from x and the statistics, with the same bits. A stored x̂ has no body of
// its own: FusedConvBackwardReLUBNReduce hands the plain BN window x̂ as its
// input under BatchNorm.StoredXHat's statistics (μ = +0, σ² = 1, ε = 0),
// under which (x̂ − 0)·1 is x̂.
//
// The (sub-BN1')-CONV1 backward is not a window: the executor composes
// BatchNorm.BackwardInputFrom with the convolution's backward window itself.
// Concat has no kernel either: the executor keeps a concat as a
// layers.Concat view of its inputs, which the windows and the BN, ReLU and
// pooling sweeps read run by run, and scatters its gradient straight into
// its inputs' gradient slots. What remains of ICF is the cost-model term
// graph.BNAttr.ICF, which prices the boundary sweeps a sub-BN1 fused with
// the concat's producers would remove.
//
// Every kernel is bit-identical to the baseline composition in
// internal/layers wherever the baseline's own arithmetic is (the x̂, the
// rectified ifmap, the convolution, the sample-order reductions; MVF
// statistics equal ComputeStatsMVF, not the two-pass ComputeStats), NaN and
// Inf included; internal/core's equivalence tests enforce this, which is the
// paper's correctness claim for the restructuring.
package kernels

import (
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// ConvForwardStats computes y = conv(x, w) and, in the same per-sample output
// sweep, the per-channel mini-batch statistics of y via the MVF identity. The
// accumulators are float32, mirroring the paper's observation that single
// precision suffices for E(X²) on activation-scale data.
func ConvForwardStats(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, *layers.BNStats, error) {
	y, _, m, err := conv.ForwardWindow(x, w, layers.ConvWindow{Stats: true})
	if err != nil {
		return nil, nil, err
	}
	stats, err := layers.NewBatchNorm(conv.OutChannels).Close(m)
	return y, stats, err
}

// ReLUConvForward computes y = conv(ReLU(x), w) without materializing the
// full-batch rectified tensor (the paper's RCF). Returns only y; the backward
// pass recovers the ReLU mask from the saved pre-activation x.
func ReLUConvForward(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, error) {
	y, _, _, err := conv.ForwardWindow(x, w, layers.ConvWindow{Rectify: true})
	return y, err
}

// FusedBNReLUConvForward computes y = conv(ReLU(BN(x)), w) for the
// restructured graph. It performs exactly two feature-map-sized sweeps:
// read x / write x̂ (the surviving O2' of Figure 5a), with the convolution
// consuming the normalized, rectified values from an on-chip-sized
// per-sample tile — the full-batch rectified tensor never exists. Each
// element is normalized exactly once as it enters the tile, matching how the
// MKL-DNN fused kernel normalizes per register block, so the arithmetic is
// identical to the baseline composition. Returns y and x̂.
func FusedBNReLUConvForward(conv layers.Conv2D, bn layers.BatchNorm, x *tensor.Tensor,
	stats *layers.BNStats, gamma, beta, w *tensor.Tensor) (y, xhat *tensor.Tensor, err error) {
	y, xhat, _, err = conv.ForwardWindow(x, w, layers.ConvWindow{BN: bn, In: stats, Gamma: gamma, Beta: beta, StoreXHat: true})
	return y, xhat, err
}

// FusedConvBackwardReLUBNReduce is the backward half of the
// (sub-BN2)-ReLU-CONV2 fusion. Given the upstream gradient dy of CONV2 and
// the saved normalized map x̂ (O2'), one per-sample window:
//
//  1. regenerates CONV2's ifmap z = ReLU(γ·x̂+β) from x̂ into a tile — the
//     rectified activations were never stored;
//  2. runs CONV2's backward on the sample, producing dz and dW2;
//  3. masks dz with the tile to turn it into BN's upstream gradient dv;
//  4. takes the sample's dγ = Σ dv·x̂ and dβ = Σ dv partials (sub-BN2').
//
// Returned dv, dγ and dβ feed BatchNorm.BackwardInput (sub-BN1') on the other
// side of the BN, whose result is CONV1's upstream gradient.
func FusedConvBackwardReLUBNReduce(conv layers.Conv2D, bn layers.BatchNorm,
	dy, xhat, gamma, beta, w *tensor.Tensor) (dv, dw, dgamma, dbeta *tensor.Tensor, err error) {
	// The statistics come from the heap, as this package has no arena to
	// return them to, and carry no count: the window reads none.
	hat, in := bn.WithAlloc(nil).StoredXHat(0)
	return conv.BackwardWindow(dy, xhat, w, layers.ConvWindow{BN: hat, In: &in, Gamma: gamma, Beta: beta})
}
