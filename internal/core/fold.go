package core

import (
	"fmt"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// Inference-time BN folding. The paper's restructuring amortizes BN's
// feature-map sweeps during *training*; at inference the same idea completes:
// a BN running off frozen statistics is an affine map per channel,
//
//	y = γ·(x−μ)/√(σ²+ε) + β = s·x + (β − s·μ),  s = γ/√(σ²+ε),
//
// so a CONV→BN pair collapses into one CONV whose weights are scaled by s
// per output channel and whose bias is β − s·μ — zero extra sweeps, zero
// normalization work at serving time. graph.FoldBN performs the structural
// rewrite; FoldBN below computes the folded parameter values.

// FoldBN compiles the inference-time fold in place: it rewrites every
// foldable CONV→BN pair of the executor's graph (see graph.FoldBN), scales
// the convolution weights, materializes the folded bias parameters
// ("<conv>.b"), and drops the absorbed γ/β and running statistics from the
// parameter maps, with the running-statistics pair built over them. The
// executor must be in inference mode with running statistics loaded
// (normally from a checkpoint; Load runs this automatically when the
// executor was built WithFoldedBN). FoldBN is idempotent — a second call is
// a no-op.
//
// The fold uses the same 1/√(σ²+ε) the normalize path uses (layers.BatchNorm
// with the conventional ε), so folded outputs match the unfolded inference
// executor within float32 round-off.
func (e *Executor) FoldBN() error {
	if e.folded {
		return nil
	}
	if !e.inference {
		return fmt.Errorf("core: FoldBN requires an inference-mode executor (WithInference or WithFoldedBN)")
	}
	pairs, err := graph.FoldBN(e.G)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		if err := e.foldPair(pr); err != nil {
			return err
		}
	}
	e.folded = true
	// The graph changed; drop the cached schedule and any compiled arena
	// release table.
	e.aplan = nil
	e.live = nil
	return nil
}

func (e *Executor) foldPair(pr graph.FoldedPair) error {
	attr := pr.BN
	gamma := e.Params[attr.ParamName+".gamma"]
	beta := e.Params[attr.ParamName+".beta"]
	rmean := e.Running[attr.ParamName+".rmean"]
	rvar := e.Running[attr.ParamName+".rvar"]
	if gamma == nil || beta == nil || rmean == nil || rvar == nil {
		return fmt.Errorf("core: fold of %q: missing parameters or running statistics for BN %q", pr.Conv.Name, attr.ParamName)
	}
	w := e.Params[pr.Conv.Name+".w"]
	if w == nil {
		return fmt.Errorf("core: fold of %q: missing convolution weights", pr.Conv.Name)
	}
	cout := pr.Conv.Conv.OutChannels
	if len(gamma.Data) != cout || len(w.Data)%cout != 0 {
		return fmt.Errorf("core: fold of %q: BN %q has %d channels, convolution writes %d",
			pr.Conv.Name, attr.ParamName, len(gamma.Data), cout)
	}
	// The exact inverse standard deviation the normalize path computes.
	inv := layers.NewBatchNorm(attr.Channels).InvStdScratch(&layers.BNStats{Mean: rmean, Var: rvar})

	per := len(w.Data) / cout
	bias := tensor.New(cout)
	for oc := 0; oc < cout; oc++ {
		s := gamma.Data[oc] * inv[oc]
		row := w.Data[oc*per : (oc+1)*per]
		for i := range row {
			row[i] *= s
		}
		bias.Data[oc] = beta.Data[oc] - float32(rmean.Data[oc]*s)
	}
	e.Params[pr.Conv.Name+".b"] = bias
	delete(e.Params, attr.ParamName+".gamma")
	delete(e.Params, attr.ParamName+".beta")
	delete(e.Running, attr.ParamName+".rmean")
	delete(e.Running, attr.ParamName+".rvar")
	delete(e.runPairs, attr.ParamName)
	return nil
}
