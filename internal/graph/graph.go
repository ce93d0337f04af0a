// Package graph defines the computational-graph IR that the BN restructuring
// passes in internal/core rewrite, and the per-operator FLOP and memory-sweep
// accounting (Figure 5 of the paper) that internal/memsim prices into time.
//
// A Graph is a DAG of Nodes created in topological order by builder methods.
// Shapes are inferred at build time and include the mini-batch dimension, so
// the same builder serves both the full-size analytical models (batch 120 at
// 224×224) and the scaled-down numeric models the tests train for real.
// Dimension 0 is nominal: it is what the cost model (and memsim/memplan over
// it) prices, not what the executor requires — core.Executor takes its batch
// size from the tensor it is handed and checks only the other dimensions.
package graph

import (
	"fmt"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// OpKind identifies the operator a node performs. The first group exists in
// freshly built (baseline) graphs; the second group only appears after the
// restructuring passes rewrite the graph.
type OpKind int

const (
	OpInput OpKind = iota
	OpConv
	OpBN   // monolithic batch normalization (training)
	OpReLU // standalone rectifier
	OpPool
	OpGlobalPool
	OpFC
	OpConcat
	OpEWS
	OpFlatten // zero-cost view from (N,C,H,W) to (N, C·H·W)
	OpDropout // inverted dropout (training-mode stochastic mask)

	// Restructured kinds (produced by internal/core passes). A CONV fused
	// with the *following* BN's statistics (sub-BN1) is not a separate kind:
	// any conv-like node can carry a StatsOut epilogue, because in a
	// CONV-BN-ReLU-CONV-BN chain the middle CONV absorbs the first BN's
	// normalize side as a prologue and the second BN's statistics side as an
	// epilogue simultaneously.
	OpSubBN1     // fission: standalone statistics sub-layer (boundary BNs)
	OpSubBN2     // fission: standalone normalize sub-layer
	OpReLUConv   // RCF: CONV reads each sample from a rectified tile
	OpBNReLUConv // sub-BN2 + ReLU + CONV fused

	opKindCount
)

var opKindNames = [...]string{
	"Input", "Conv", "BN", "ReLU", "Pool", "GlobalPool", "FC", "Concat", "EWS", "Flatten",
	"Dropout",
	"SubBN1", "SubBN2", "ReLUConv", "BNReLUConv",
}

// IsConvLike reports whether the kind performs a convolution (with or
// without fused prologues).
func (k OpKind) IsConvLike() bool {
	return k == OpConv || k == OpReLUConv || k == OpBNReLUConv
}

func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// LayerClass buckets operators the way the paper's breakdown figures do.
type LayerClass int

const (
	ClassConv LayerClass = iota // CONV and FC ("CONV/FC" in Figure 1)
	ClassBN
	ClassReLU
	ClassPool
	ClassConcat // Concat + Split traffic
	ClassEWS
	ClassOther
)

var layerClassNames = [...]string{"CONV/FC", "BN", "ReLU", "Pool", "Concat/Split", "EWS", "Other"}

func (c LayerClass) String() string {
	if c < 0 || int(c) >= len(layerClassNames) {
		return fmt.Sprintf("LayerClass(%d)", int(c))
	}
	return layerClassNames[c]
}

// IsConvClass reports whether the class counts as CONV/FC in the paper's
// CONV vs non-CONV split.
func (c LayerClass) IsConvClass() bool { return c == ClassConv }

// Class returns the breakdown bucket for a node. Fused operators are charged
// to CONV/FC, matching how the paper's post-restructuring breakdowns absorb
// the fused work into the convolution.
func (n *Node) Class() LayerClass {
	switch n.Kind {
	case OpConv, OpFC, OpReLUConv, OpBNReLUConv:
		return ClassConv
	case OpBN, OpSubBN1, OpSubBN2:
		return ClassBN
	case OpReLU:
		return ClassReLU
	case OpPool, OpGlobalPool:
		return ClassPool
	case OpConcat:
		return ClassConcat
	case OpEWS:
		return ClassEWS
	default:
		return ClassOther
	}
}

// BNAttr carries the batch-normalization identity through rewrites: the
// channel count and the stable parameter name under which the executor finds
// γ and β, no matter which fused node ends up performing the normalization.
type BNAttr struct {
	Channels  int
	ParamName string
	MVF       bool // statistics via E(X²)−E(X)² in a single sweep
	ICF       bool // sub-BN1 fused with the adjacent Concat/Split (ICF)
}

// Node is one operator instance. Nodes are created by Graph builder methods
// and rewritten in place by the restructuring passes (Kind changes, Inputs
// rewire, deleted nodes get marked Dead).
type Node struct {
	ID   int
	Kind OpKind
	Name string
	Dead bool // removed by a fusion pass; skipped everywhere

	Inputs   []*Node
	OutShape tensor.Shape // dimension 0 is the nominal batch the cost model prices

	// Operator attributes (set per kind):
	Conv    *layers.Conv2D  // Conv, ReLUConv, BNReLUConv
	Pool    *layers.Pool2D  // Pool
	FC      *layers.FC      // FC
	BN      *BNAttr         // BN, SubBN1, SubBN2, BNReLUConv (the prologue BN)
	Dropout *layers.Dropout // Dropout

	// StatsOut, when non-nil on a conv-like node, fuses the *following*
	// BN's statistics sub-layer (sub-BN1) into this CONV: Σx and Σx² of the
	// ofmap accumulate during the output-writing sweep (MVF), and the
	// backward pass produces that BN's element-wise input gradient
	// (sub-BN1') in the sweep that reads this CONV's upstream gradient.
	StatsOut *BNAttr

	// StatsFrom names the node whose execution produced this node's batch
	// statistics: a conv-like node with StatsOut, or a standalone SubBN1.
	// Set on SubBN2 and BNReLUConv.
	StatsFrom *Node

	// FoldedBias, set by the inference-time FoldBN rewrite on an OpConv
	// node, marks that the convolution carries a per-output-channel bias
	// parameter ("<name>.b") absorbed from a folded batch normalization.
	// The executor adds the bias in the same output-writing sweep as the
	// convolution; folded nodes are inference-only (no backward pass).
	FoldedBias bool

	// CPL tags the composite layer (DenseNet) or residual block (ResNet)
	// the node belongs to; -1 for nodes outside any. ICF reasons about
	// boundaries between CPLs.
	CPL int
}

// InShape returns the shape of the i-th input.
func (n *Node) InShape(i int) tensor.Shape { return n.Inputs[i].OutShape }

// Graph is a DAG of nodes in topological (creation) order. Output designates
// the node whose value the model produces (the logits); builders must set it
// because restructured graphs contain sink nodes (SubBN1) that are not
// outputs.
type Graph struct {
	Name   string
	Nodes  []*Node
	Output *Node
}

// New creates an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

// Live returns the non-dead nodes in topological order.
func (g *Graph) Live() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if !n.Dead {
			out = append(out, n)
		}
	}
	return out
}

// Consumers returns, for every node ID, the live nodes that read its output.
func (g *Graph) Consumers() map[int][]*Node {
	m := make(map[int][]*Node)
	for _, n := range g.Live() {
		for _, in := range n.Inputs {
			m[in.ID] = append(m[in.ID], n)
		}
	}
	return m
}

// Input declares a graph input of the given shape.
func (g *Graph) Input(name string, shape tensor.Shape) *Node {
	return g.add(&Node{Kind: OpInput, Name: name, OutShape: shape.Clone(), CPL: -1})
}

// Conv appends a convolution node.
func (g *Graph) Conv(name string, in *Node, conv layers.Conv2D, cpl int) (*Node, error) {
	if in.OutShape == nil || len(in.OutShape) != 4 {
		return nil, fmt.Errorf("graph: conv %q input shape %v not rank 4", name, in.OutShape)
	}
	if in.OutShape[1] != conv.InChannels {
		return nil, fmt.Errorf("graph: conv %q expects %d input channels, got %v", name, conv.InChannels, in.OutShape)
	}
	c := conv
	return g.add(&Node{
		Kind: OpConv, Name: name, Inputs: []*Node{in},
		OutShape: conv.OutShape(in.OutShape), Conv: &c, CPL: cpl,
	}), nil
}

// BN appends a monolithic batch-normalization node.
func (g *Graph) BN(name string, in *Node, cpl int) (*Node, error) {
	if len(in.OutShape) != 4 {
		return nil, fmt.Errorf("graph: bn %q input shape %v not rank 4", name, in.OutShape)
	}
	return g.add(&Node{
		Kind: OpBN, Name: name, Inputs: []*Node{in}, OutShape: in.OutShape.Clone(),
		BN:  &BNAttr{Channels: in.OutShape[1], ParamName: name},
		CPL: cpl,
	}), nil
}

// ReLU appends a rectifier node.
func (g *Graph) ReLU(name string, in *Node, cpl int) *Node {
	return g.add(&Node{Kind: OpReLU, Name: name, Inputs: []*Node{in}, OutShape: in.OutShape.Clone(), CPL: cpl})
}

// Pool appends a max/avg pooling node.
func (g *Graph) Pool(name string, in *Node, pool layers.Pool2D, cpl int) (*Node, error) {
	if len(in.OutShape) != 4 {
		return nil, fmt.Errorf("graph: pool %q input shape %v not rank 4", name, in.OutShape)
	}
	if err := pool.Validate(); err != nil {
		return nil, fmt.Errorf("graph: pool %q: %w", name, err)
	}
	p := pool
	return g.add(&Node{
		Kind: OpPool, Name: name, Inputs: []*Node{in},
		OutShape: pool.OutShape(in.OutShape), Pool: &p, CPL: cpl,
	}), nil
}

// GlobalPool appends a global average pooling node producing (N, C).
func (g *Graph) GlobalPool(name string, in *Node, cpl int) (*Node, error) {
	if len(in.OutShape) != 4 {
		return nil, fmt.Errorf("graph: gap %q input shape %v not rank 4", name, in.OutShape)
	}
	return g.add(&Node{
		Kind: OpGlobalPool, Name: name, Inputs: []*Node{in},
		OutShape: tensor.Shape{in.OutShape[0], in.OutShape[1]}, CPL: cpl,
	}), nil
}

// FC appends a fully-connected node over (N, In) activations.
func (g *Graph) FC(name string, in *Node, fc layers.FC, cpl int) (*Node, error) {
	if len(in.OutShape) != 2 || in.OutShape[1] != fc.In {
		return nil, fmt.Errorf("graph: fc %q input shape %v, want [N %d]", name, in.OutShape, fc.In)
	}
	f := fc
	return g.add(&Node{
		Kind: OpFC, Name: name, Inputs: []*Node{in},
		OutShape: tensor.Shape{in.OutShape[0], fc.Out}, FC: &f, CPL: cpl,
	}), nil
}

// Concat appends a channel-axis concatenation node.
func (g *Graph) Concat(name string, cpl int, ins ...*Node) (*Node, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("graph: concat %q has no inputs", name)
	}
	base := ins[0].OutShape
	totalC := 0
	for _, in := range ins {
		s := in.OutShape
		if len(s) != 4 || s[0] != base[0] || s[2] != base[2] || s[3] != base[3] {
			return nil, fmt.Errorf("graph: concat %q incompatible input %v vs %v", name, s, base)
		}
		totalC += s[1]
	}
	return g.add(&Node{
		Kind: OpConcat, Name: name, Inputs: append([]*Node{}, ins...),
		OutShape: tensor.Shape{base[0], totalC, base[2], base[3]}, CPL: cpl,
	}), nil
}

// Dropout appends an inverted-dropout node.
func (g *Graph) Dropout(name string, in *Node, rate float64, cpl int) (*Node, error) {
	d := layers.Dropout{Rate: rate}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("graph: dropout %q: %w", name, err)
	}
	return g.add(&Node{
		Kind: OpDropout, Name: name, Inputs: []*Node{in},
		OutShape: in.OutShape.Clone(), Dropout: &d, CPL: cpl,
	}), nil
}

// Flatten appends a zero-cost view node turning (N,C,H,W) into (N, C·H·W)
// for an FC head. Frameworks implement this as a reshape with no data
// movement, and the cost model prices it accordingly.
func (g *Graph) Flatten(name string, in *Node, cpl int) (*Node, error) {
	if len(in.OutShape) != 4 {
		return nil, fmt.Errorf("graph: flatten %q input shape %v not rank 4", name, in.OutShape)
	}
	return g.add(&Node{
		Kind: OpFlatten, Name: name, Inputs: []*Node{in},
		OutShape: tensor.Shape{in.OutShape[0], in.OutShape[1] * in.OutShape[2] * in.OutShape[3]},
		CPL:      cpl,
	}), nil
}

// EWS appends an element-wise sum node (ResNet shortcut join).
func (g *Graph) EWS(name string, a, b *Node, cpl int) (*Node, error) {
	if !a.OutShape.Equal(b.OutShape) {
		return nil, fmt.Errorf("graph: ews %q shape mismatch %v vs %v", name, a.OutShape, b.OutShape)
	}
	return g.add(&Node{Kind: OpEWS, Name: name, Inputs: []*Node{a, b}, OutShape: a.OutShape.Clone(), CPL: cpl}), nil
}

// AddNode inserts a pre-constructed node (used by the restructuring passes
// when fission materializes a SubBN1). The node is appended, which keeps the
// slice topologically ordered only if its inputs already exist — passes must
// re-sort afterwards via Normalize.
func (g *Graph) AddNode(n *Node) *Node { return g.add(n) }

// Normalize re-sorts Nodes topologically (inputs before consumers) and drops
// dead nodes from the ordering guarantees. It must be called after passes
// that append nodes out of order.
func (g *Graph) Normalize() error {
	order := make([]*Node, 0, len(g.Nodes))
	state := make(map[int]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n.ID] {
		case 1:
			return fmt.Errorf("graph: cycle through node %q", n.Name)
		case 2:
			return nil
		}
		state[n.ID] = 1
		for _, in := range n.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		// StatsFrom is a scheduling dependency even though no tensor edge
		// exists: the statistics must be produced before they are consumed.
		if n.StatsFrom != nil {
			if err := visit(n.StatsFrom); err != nil {
				return err
			}
		}
		state[n.ID] = 2
		order = append(order, n)
		return nil
	}
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		if err := visit(n); err != nil {
			return err
		}
	}
	for i, n := range order {
		n.ID = i
	}
	g.Nodes = order
	return nil
}

// Validate checks structural invariants: inputs precede consumers, shapes
// are set, statistics links point at statistics-producing nodes, each
// producer has at most one normalize partner, which is the only reader of a
// StatsOut producer's output, and the designated output (if set) is live.
func (g *Graph) Validate() error {
	if g.Output != nil && g.Output.Dead {
		return fmt.Errorf("graph: output node %q is dead", g.Output.Name)
	}
	seen := make(map[*Node]bool)
	partner := make(map[*Node]*Node) // statistics producer → its normalize side
	for _, n := range g.Live() {
		for _, in := range n.Inputs {
			if in.Dead {
				return fmt.Errorf("graph: node %q consumes dead node %q", n.Name, in.Name)
			}
			if !seen[in] {
				return fmt.Errorf("graph: node %q consumes %q before it is defined", n.Name, in.Name)
			}
			// A StatsOut producer's upstream gradient is its partner's
			// sub-BN1' output; a gradient from any other reader would be lost.
			if in.StatsOut != nil && n.StatsFrom != in {
				return fmt.Errorf("graph: node %q reads statistics producer %q, whose only reader may be its normalize partner", n.Name, in.Name)
			}
		}
		if n.OutShape.NumElems() == 0 {
			return fmt.Errorf("graph: node %q has empty shape %v", n.Name, n.OutShape)
		}
		if n.StatsOut != nil && !n.Kind.IsConvLike() {
			return fmt.Errorf("graph: node %q (%v) carries a StatsOut epilogue but is not conv-like", n.Name, n.Kind)
		}
		if n.FoldedBias {
			if n.Kind != OpConv {
				return fmt.Errorf("graph: node %q (%v) carries a folded bias but is not a plain CONV", n.Name, n.Kind)
			}
			if n.StatsOut != nil {
				return fmt.Errorf("graph: node %q mixes a folded bias with a statistics epilogue; folding is inference-only", n.Name)
			}
		}
		switch n.Kind {
		case OpSubBN2, OpBNReLUConv:
			if n.StatsFrom == nil {
				return fmt.Errorf("graph: node %q (%v) has no statistics source", n.Name, n.Kind)
			}
			sf := n.StatsFrom
			if !(sf.Kind == OpSubBN1 || (sf.Kind.IsConvLike() && sf.StatsOut != nil)) {
				return fmt.Errorf("graph: node %q statistics source %q (%v) produces no statistics", n.Name, sf.Name, sf.Kind)
			}
			if sf.Dead {
				return fmt.Errorf("graph: node %q statistics source %q is dead", n.Name, sf.Name)
			}
			if !seen[sf] {
				return fmt.Errorf("graph: node %q consumes statistics of %q before they are produced", n.Name, sf.Name)
			}
			// The backward stash holds one sub-BN2' result per producer.
			if p := partner[sf]; p != nil {
				return fmt.Errorf("graph: statistics producer %q has two normalize partners, %q and %q", sf.Name, p.Name, n.Name)
			}
			partner[sf] = n
			if n.Kind == OpBNReLUConv && (n.Conv == nil || n.BN == nil) {
				return fmt.Errorf("graph: node %q (BNReLUConv) missing conv or BN attributes", n.Name)
			}
		case OpBN, OpSubBN1:
			if n.BN == nil {
				return fmt.Errorf("graph: node %q (%v) missing BN attributes", n.Name, n.Kind)
			}
		case OpConv, OpReLUConv:
			if n.Conv == nil {
				return fmt.Errorf("graph: node %q (%v) missing conv attributes", n.Name, n.Kind)
			}
		}
		seen[n] = true
	}
	return nil
}

// CountKinds tallies live nodes per kind — handy for pass assertions.
func (g *Graph) CountKinds() map[OpKind]int {
	m := make(map[OpKind]int)
	for _, n := range g.Live() {
		m[n.Kind]++
	}
	return m
}
