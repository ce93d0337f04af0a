package graph

import "fmt"

// Direction selects the training pass a cost belongs to.
type Direction int

const (
	Forward Direction = iota
	Backward
)

func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// SweepKind distinguishes feature-map sweeps (mini-batch-sized, the paper's
// grey boxes) from parameter traffic (weights, small enough to cache except
// for the big FC layers).
type SweepKind int

const (
	SweepFeatureMap SweepKind = iota
	SweepWeights
)

// Sweep is one full read or write of a tensor during an operator's
// execution. The memory simulator decides whether each sweep hits DRAM or is
// filtered by on-chip storage based on Bytes.
type Sweep struct {
	Bytes int64
	Write bool
	Kind  SweepKind

	// Blocked marks sweeps a tiled convolution re-reads once per on-chip
	// block (its ifmap in the forward pass; dY and the saved ifmap in the
	// backward pass). The machine model scales these by its ConvReadFactor
	// when the tensor spills. Epilogue reads added by the restructuring
	// (the sub-BN1' x̂ read) are streamed once and stay unmarked.
	Blocked bool
}

// OpCost is the resource demand of one operator execution in one direction.
type OpCost struct {
	Node      *Node
	Dir       Direction
	FLOPs     int64
	Sweeps    []Sweep
	Synthetic bool // true for implicit Split costs attached to fan-out nodes
}

// Per-element FLOP weights for the non-CONV arithmetic. These only matter
// for the compute leg of the roofline, which non-CONV layers never bind on;
// they are kept explicit so the model is auditable.
const (
	flopsBNMeanVar   = 5 // two-pass statistics: 2 (mean) + 3 (variance)
	flopsBNMVF       = 3 // single-pass Σx, Σx² accumulation
	flopsBNNormalize = 4 // subtract, scale, multiply, add
	flopsReLU        = 1
	flopsBNBwdReduce = 4
	flopsBNBwdInput  = 5
	flopsEWS         = 1
)

func fmBytes(s []int) int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n * 4
}

func (n *Node) outBytes() int64 { return fmBytes(n.OutShape) }
func (n *Node) inBytes(i int) int64 {
	return fmBytes(n.Inputs[i].OutShape)
}
func (n *Node) outElems() int64 { return n.outBytes() / 4 }
func (n *Node) inElems(i int) int64 {
	return n.inBytes(i) / 4
}

func (n *Node) weightBytes() int64 {
	switch {
	case n.Conv != nil:
		return 4 * int64(n.Conv.WeightShape().NumElems())
	case n.FC != nil:
		return 4 * int64(n.FC.In) * int64(n.FC.Out) // plus bias, negligible
	default:
		return 0
	}
}

func (n *Node) convFLOPs() int64 {
	in := n.Inputs[0].OutShape
	return n.Conv.FLOPs(in[0], in[2], in[3])
}

func rd(b int64) Sweep  { return Sweep{Bytes: b} }
func rb(b int64) Sweep  { return Sweep{Bytes: b, Blocked: true} }
func wr(b int64) Sweep  { return Sweep{Bytes: b, Write: true} }
func rdW(b int64) Sweep { return Sweep{Bytes: b, Kind: SweepWeights} }
func wrW(b int64) Sweep { return Sweep{Bytes: b, Write: true, Kind: SweepWeights} }

// ForwardCost returns the operator's forward-pass resource demand,
// implementing the Figure 5(a) sweep accounting. See DESIGN.md §4 for the
// derivation of each entry.
func (n *Node) ForwardCost() (OpCost, error) {
	c := OpCost{Node: n, Dir: Forward}
	switch n.Kind {
	case OpInput:
		// No cost: input staging is outside the training-iteration window.
	case OpConv:
		c.FLOPs = n.convFLOPs()
		c.Sweeps = []Sweep{rb(n.inBytes(0)), rdW(n.weightBytes()), wr(n.outBytes())}
	case OpBN:
		// Monolithic BN: mean sweep, variance sweep, normalize read, write.
		// With MVF the mean and variance sweeps collapse into one.
		reads := 3
		flops := int64(flopsBNMeanVar + flopsBNNormalize)
		if n.BN.MVF {
			reads = 2
			flops = flopsBNMVF + flopsBNNormalize
		}
		c.FLOPs = flops * n.outElems()
		for i := 0; i < reads; i++ {
			c.Sweeps = append(c.Sweeps, rd(n.inBytes(0)))
		}
		c.Sweeps = append(c.Sweeps, wr(n.outBytes()))
	case OpSubBN1:
		// Standalone statistics sub-layer (boundary BN). With ICF the sweep
		// rides on the adjacent Concat's output write and costs nothing.
		if n.BN.ICF {
			c.FLOPs = flopsBNMVF * n.inElems(0)
			break
		}
		if n.BN.MVF {
			c.FLOPs = flopsBNMVF * n.inElems(0)
			c.Sweeps = []Sweep{rd(n.inBytes(0))}
		} else {
			c.FLOPs = flopsBNMeanVar * n.inElems(0)
			c.Sweeps = []Sweep{rd(n.inBytes(0)), rd(n.inBytes(0))}
		}
	case OpSubBN2:
		// Standalone normalize sub-layer (only present when fission ran but
		// the following ReLU+CONV pattern was absent).
		c.FLOPs = flopsBNNormalize * n.outElems()
		c.Sweeps = []Sweep{rd(n.inBytes(0)), wr(n.outBytes())}
	case OpReLU:
		c.FLOPs = flopsReLU * n.outElems()
		c.Sweeps = []Sweep{rd(n.inBytes(0)), wr(n.outBytes())}
	case OpReLUConv:
		// RCF: clipping happens on the CONV's ifmap read.
		c.FLOPs = n.convFLOPs() + flopsReLU*n.inElems(0)
		c.Sweeps = []Sweep{rb(n.inBytes(0)), rdW(n.weightBytes()), wr(n.outBytes())}
	case OpBNReLUConv:
		// (sub-BN2)-ReLU-CONV2: read the preceding CONV's ofmap once (I2'),
		// write the normalized map once for backward (O2'), write the CONV
		// ofmap. Normalization and clipping ride on the ifmap read.
		c.FLOPs = n.convFLOPs() + (flopsBNNormalize+flopsReLU)*n.inElems(0)
		c.Sweeps = []Sweep{
			rb(n.inBytes(0)),     // I2'
			wr(n.inBytes(0)),     // O2' — x̂ saved for backward
			rdW(n.weightBytes()), // filters
			wr(n.outBytes()),     // CONV2 ofmap
		}
	case OpPool:
		k := int64(n.Pool.Kernel)
		c.FLOPs = k * k * n.outElems()
		c.Sweeps = []Sweep{rd(n.inBytes(0)), wr(n.outBytes())}
	case OpGlobalPool:
		c.FLOPs = n.inElems(0)
		c.Sweeps = []Sweep{rd(n.inBytes(0)), wr(n.outBytes())}
	case OpFC:
		c.FLOPs = n.FC.FLOPs(n.OutShape[0])
		c.Sweeps = []Sweep{rd(n.inBytes(0)), rdW(n.weightBytes()), wr(n.outBytes())}
	case OpConcat:
		// Reference implementation performs physical copies (paper §3.1).
		for i := range n.Inputs {
			c.Sweeps = append(c.Sweeps, rd(n.inBytes(i)))
		}
		c.Sweeps = append(c.Sweeps, wr(n.outBytes()))
	case OpEWS:
		c.FLOPs = flopsEWS * n.outElems()
		c.Sweeps = []Sweep{rd(n.inBytes(0)), rd(n.inBytes(1)), wr(n.outBytes())}
	case OpDropout:
		// Read input, write output and the survivor mask (reused backward).
		c.FLOPs = 2 * n.outElems()
		c.Sweeps = []Sweep{rd(n.inBytes(0)), wr(n.outBytes()), wr(n.outBytes())}
	case OpFlatten:
		// A view: no data movement in either pass.
	default:
		return c, fmt.Errorf("graph: no forward cost for kind %v (node %q)", n.Kind, n.Name)
	}
	if n.StatsOut != nil {
		// CONV-(sub-BN1) epilogue: Σx, Σx² accumulate while the ofmap tile is
		// register-resident — FLOPs only, no additional sweep (Figure 5a's
		// O1, I2, I3 → O1' collapse).
		c.FLOPs += flopsBNMVF * n.outElems()
	}
	return c, nil
}

// BackwardCost returns the operator's backward-pass resource demand,
// implementing the Figure 5(b) accounting. CONV layers do roughly twice the
// forward work (dX and dW each sweep dY and the saved ifmap).
func (n *Node) BackwardCost() (OpCost, error) {
	c := OpCost{Node: n, Dir: Backward}
	switch n.Kind {
	case OpInput:
		// Gradients are not propagated into the input images.
	case OpConv:
		c.FLOPs = 2 * n.convFLOPs()
		c.Sweeps = []Sweep{
			rb(n.outBytes()),     // dY for dX
			rb(n.inBytes(0)),     // saved ifmap for dW
			rb(n.outBytes()),     // dY again for dW
			wr(n.inBytes(0)),     // dX
			rdW(n.weightBytes()), // filters for dX
			wrW(n.weightBytes()), // dW
		}
	case OpBN:
		// Monolithic BN backward: dγ/dβ reductions (read dY, read saved
		// ifmap), then dX (read both again), write dX. Five sweeps — the
		// ones BNFF removes entirely. MVF does not apply to backward
		// (paper Figure 7 note **).
		c.FLOPs = (flopsBNBwdReduce + flopsBNBwdInput) * n.outElems()
		c.Sweeps = []Sweep{
			rd(n.outBytes()), rd(n.inBytes(0)), // reductions
			rd(n.outBytes()), rd(n.inBytes(0)), // dX pass
			wr(n.inBytes(0)),
		}
	case OpSubBN1:
		// Boundary sub-BN1 backward (sub-BN1' unfused): the element-wise dX
		// from dv and x̂. With ICF it fuses into the adjacent Split's
		// gradient reduction and costs nothing extra.
		c.FLOPs = flopsBNBwdInput * n.inElems(0)
		if !n.BN.ICF {
			c.Sweeps = []Sweep{rd(n.inBytes(0)), rd(n.inBytes(0)), wr(n.inBytes(0))}
		}
	case OpSubBN2:
		// Standalone normalize backward performs only the dγ/dβ reductions
		// (sub-BN2'): read the upstream gradient and the saved input (x̂
		// recomputes from it). The dX half (sub-BN1') always fuses into the
		// statistics-carrying CONV behind it, which is what makes fission
		// profitable even when the ReLU→CONV fusion pattern is absent
		// (ResNet's BN-before-EWS).
		c.FLOPs = flopsBNBwdReduce * n.outElems()
		c.Sweeps = []Sweep{rd(n.outBytes()), rd(n.inBytes(0))}
	case OpReLU:
		c.FLOPs = flopsReLU * n.outElems()
		c.Sweeps = []Sweep{rd(n.outBytes()), rd(n.inBytes(0)), wr(n.inBytes(0))}
	case OpReLUConv:
		// RCF backward: the mask applies while the CONV backward writes dX;
		// the rectified ifmap regenerates from the saved pre-activation.
		c.FLOPs = 2*n.convFLOPs() + flopsReLU*n.inElems(0)
		c.Sweeps = []Sweep{
			rb(n.outBytes()),
			rb(n.inBytes(0)),
			rb(n.outBytes()),
			wr(n.inBytes(0)),
			rdW(n.weightBytes()),
			wrW(n.weightBytes()),
		}
	case OpBNReLUConv:
		// Fused CONV2-ReLU-(sub-BN2') backward: regenerate z from x̂ (read
		// x̂ instead of a stored z), produce dv with the mask applied and the
		// dγ/dβ reductions riding the same sweep.
		c.FLOPs = 2*n.convFLOPs() + (flopsBNBwdReduce+flopsReLU)*n.inElems(0)
		c.Sweeps = []Sweep{
			rb(n.outBytes()), // dY
			rb(n.inBytes(0)), // x̂ (regenerates z for dW)
			rb(n.outBytes()), // dY again for dW
			wr(n.inBytes(0)), // dv
			rdW(n.weightBytes()),
			wrW(n.weightBytes()),
		}
	case OpPool:
		c.Sweeps = []Sweep{rd(n.outBytes()), wr(n.inBytes(0))}
		if n.Pool.Max {
			c.Sweeps = append(c.Sweeps, rd(n.outBytes())) // argmax indices
		}
		c.FLOPs = n.outElems()
	case OpGlobalPool:
		c.FLOPs = n.inElems(0)
		c.Sweeps = []Sweep{rd(n.outBytes()), wr(n.inBytes(0))}
	case OpFC:
		c.FLOPs = 2 * n.FC.FLOPs(n.OutShape[0])
		c.Sweeps = []Sweep{
			rd(n.outBytes()), rd(n.inBytes(0)), wr(n.inBytes(0)),
			rdW(n.weightBytes()), wrW(n.weightBytes()),
		}
	case OpConcat:
		// Slicing dY back into parts: read once, write the same volume.
		c.Sweeps = []Sweep{rd(n.outBytes())}
		for i := range n.Inputs {
			c.Sweeps = append(c.Sweeps, wr(n.inBytes(i)))
		}
	case OpEWS:
		c.Sweeps = []Sweep{rd(n.outBytes()), wr(n.inBytes(0)), wr(n.inBytes(1))}
	case OpDropout:
		c.FLOPs = n.outElems()
		c.Sweeps = []Sweep{rd(n.outBytes()), rd(n.outBytes()), wr(n.inBytes(0))}
	case OpFlatten:
		// A view: the gradient reshapes back for free.
	default:
		return c, fmt.Errorf("graph: no backward cost for kind %v (node %q)", n.Kind, n.Name)
	}
	if n.StatsOut != nil {
		// Fused (sub-BN1')-CONV backward: the following BN's element-wise
		// input gradient is produced while this CONV reads what would have
		// been its dY. Costs one extra x̂ read over the undecorated backward;
		// removes the five standalone BN backward sweeps.
		c.FLOPs += flopsBNBwdInput * n.outElems()
		c.Sweeps = append(c.Sweeps, rd(n.outBytes()))
	}
	return c, nil
}

// splitCost returns the implicit Split operator cost for a node whose output
// feeds fanout consumers. Forward is pointer passing (free, §3.1); backward
// sums fanout gradient maps — a real reduction the paper calls out.
// With ICF on the producing node's graph side the reduction fuses with the
// boundary sub-BN1' and the write is saved; we model ICF's saving on the
// SubBN1 nodes instead, so Split stays as-is.
func splitCost(n *Node, fanout int, dir Direction) (OpCost, bool) {
	if fanout <= 1 || dir == Forward {
		return OpCost{}, false
	}
	c := OpCost{Node: n, Dir: Backward, Synthetic: true}
	for i := 0; i < fanout; i++ {
		c.Sweeps = append(c.Sweeps, rd(n.outBytes()))
	}
	c.Sweeps = append(c.Sweeps, wr(n.outBytes()))
	c.FLOPs = int64(fanout) * n.outElems()
	return c, true
}

// gradFanIn counts the consumers that deliver a gradient over the data
// edge. Normalize-side fused nodes (SubBN2, BNReLUConv) are excluded: their
// input gradient travels through the statistics producer (sub-BN1'/StatsOut
// path), so they add no term to the Split reduction.
func gradFanIn(consumers []*Node) int {
	k := 0
	for _, c := range consumers {
		switch c.Kind {
		case OpSubBN2, OpBNReLUConv:
		default:
			k++
		}
	}
	return k
}

// TrainingCosts enumerates the per-operator costs of one training iteration:
// every live node forward in topological order, then every node backward in
// reverse order, with implicit Split costs inserted where the gradient
// fan-in exceeds one.
func (g *Graph) TrainingCosts() ([]OpCost, error) {
	live := g.Live()
	cons := g.Consumers()
	var out []OpCost
	for _, n := range live {
		c, err := n.ForwardCost()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	for i := len(live) - 1; i >= 0; i-- {
		n := live[i]
		if sc, ok := splitCost(n, gradFanIn(cons[n.ID]), Backward); ok {
			out = append(out, sc)
		}
		c, err := n.BackwardCost()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// PassCosts returns only one direction's costs, in execution order.
func (g *Graph) PassCosts(dir Direction) ([]OpCost, error) {
	all, err := g.TrainingCosts()
	if err != nil {
		return nil, err
	}
	var out []OpCost
	for _, c := range all {
		if c.Dir == dir {
			out = append(out, c)
		}
	}
	return out, nil
}
