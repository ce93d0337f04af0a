package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Conv2D holds the hyper-parameters of a 2-D convolution layer. Weights are
// laid out (Cout, Cin/groups, KH, KW); the layer has no bias term because
// every convolution in the studied models is immediately followed by BN,
// whose β subsumes it (the paper's models follow the same convention).
//
// Groups partitions the channels into independent convolutions (Groups == 0
// or 1 means dense). Groups == InChannels == OutChannels is a depthwise
// convolution, the MobileNet building block.
type Conv2D struct {
	InChannels  int
	OutChannels int
	KernelH     int
	KernelW     int
	Stride      int
	Pad         int
	Groups      int

	pool  *parallel.Pool
	alloc *tensor.Arena
}

// WithPool returns a copy of the descriptor that executes on the given
// worker pool (nil means serial). The receiver is not modified, so a graph's
// shared descriptor stays execution-state-free and two executors can run the
// same graph with different pools.
func (c Conv2D) WithPool(p *parallel.Pool) Conv2D {
	c.pool = p
	return c
}

// WithAlloc returns a copy of the descriptor that obtains its output and
// workspace buffers from the given arena (nil means plain heap allocation,
// bit-identical to the arena-free path). The arena is only ever consulted
// from the dispatching goroutine, never inside pooled closures.
func (c Conv2D) WithAlloc(a *tensor.Arena) Conv2D {
	c.alloc = a
	return c
}

// NewConv2D builds a square-kernel dense convolution descriptor.
func NewConv2D(in, out, kernel, stride, pad int) Conv2D {
	return Conv2D{InChannels: in, OutChannels: out, KernelH: kernel, KernelW: kernel, Stride: stride, Pad: pad}
}

// NewDepthwiseConv2D builds a square-kernel depthwise convolution (one
// filter per channel).
func NewDepthwiseConv2D(channels, kernel, stride, pad int) Conv2D {
	c := NewConv2D(channels, channels, kernel, stride, pad)
	c.Groups = channels
	return c
}

// groups returns the effective group count (the zero value means dense).
func (c Conv2D) groups() int {
	if c.Groups <= 1 {
		return 1
	}
	return c.Groups
}

// OutSize returns the output spatial extent for an input extent.
func (c Conv2D) OutSize(in int) int {
	return (in+2*c.Pad-c.KernelH)/c.Stride + 1
}

// OutShape returns the output feature-map shape for the given input shape.
func (c Conv2D) OutShape(in tensor.Shape) tensor.Shape {
	n, _, h, w := in[0], in[1], in[2], in[3]
	oh := (h+2*c.Pad-c.KernelH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KernelW)/c.Stride + 1
	return tensor.Shape{n, c.OutChannels, oh, ow}
}

// WeightShape returns the (Cout, Cin/groups, KH, KW) weight tensor shape.
func (c Conv2D) WeightShape() tensor.Shape {
	return tensor.Shape{c.OutChannels, c.InChannels / c.groups(), c.KernelH, c.KernelW}
}

// FLOPs returns the multiply-add count (2 FLOPs per MAC) of a forward pass
// over a batch with the given input spatial extent. The analytical model in
// internal/graph uses the same formula.
func (c Conv2D) FLOPs(batch, inH, inW int) int64 {
	oh := (inH+2*c.Pad-c.KernelH)/c.Stride + 1
	ow := (inW+2*c.Pad-c.KernelW)/c.Stride + 1
	return 2 * int64(batch) * int64(c.OutChannels) * int64(oh) * int64(ow) *
		int64(c.InChannels/c.groups()) * int64(c.KernelH) * int64(c.KernelW)
}

func (c Conv2D) checkForward(x Map, w *tensor.Tensor) error {
	s := x.Shape()
	if len(s) != 4 {
		return fmt.Errorf("conv: input must be rank 4, got %v", s)
	}
	if s[1] != c.InChannels {
		return fmt.Errorf("conv: input has %d channels, layer expects %d", s[1], c.InChannels)
	}
	if !w.Shape().Equal(c.WeightShape()) {
		return fmt.Errorf("conv: weight shape %v, want %v", w.Shape(), c.WeightShape())
	}
	if c.Stride < 1 {
		return fmt.Errorf("conv: stride %d < 1", c.Stride)
	}
	if s[2]+2*c.Pad < c.KernelH || s[3]+2*c.Pad < c.KernelW {
		return fmt.Errorf("conv: input %v smaller than kernel %dx%d with pad %d",
			s, c.KernelH, c.KernelW, c.Pad)
	}
	if g := c.groups(); c.InChannels%g != 0 || c.OutChannels%g != 0 {
		return fmt.Errorf("conv: channels %d->%d not divisible by %d groups",
			c.InChannels, c.OutChannels, g)
	}
	return nil
}

// Forward computes the convolution of x (N,Cin,H,W) with weights w,
// returning (N,Cout,OH,OW): the zero ConvWindow. With a WithPool pool of more
// than one worker the batch is processed by multiple goroutines with
// bit-identical results.
func (c Conv2D) Forward(x, w *tensor.Tensor) (*tensor.Tensor, error) {
	y, _, _, err := c.ForwardWindow(x, w, ConvWindow{})
	return y, err
}

// Backward computes the input gradient dX and weight gradient dW given the
// upstream gradient dY, the saved input x, and the weights w.
func (c Conv2D) Backward(dy, x, w *tensor.Tensor) (dx, dw *tensor.Tensor, err error) {
	dx, dw, _, _, err = c.BackwardWindow(dy, x, w, ConvWindow{})
	return dx, dw, err
}
