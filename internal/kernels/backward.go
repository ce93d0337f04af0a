package kernels

import (
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

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
	return conv.BackwardWindow(dy, xhat, w, layers.ConvWindow{BN: bn, Gamma: gamma, Beta: beta})
}

// ReLUConvBackward is RCF's backward: the same window regenerating
// z = ReLU(x) from the saved pre-activation (the forward stored nothing) and
// masking with it. Returns the gradient w.r.t. the pre-activation x and dW.
func ReLUConvBackward(conv layers.Conv2D, dy, x, w *tensor.Tensor) (dx, dw *tensor.Tensor, err error) {
	dx, dw, _, _, err = conv.BackwardWindow(dy, x, w, layers.ConvWindow{Rectify: true})
	return dx, dw, err
}
