// Package fixture exercises the arenaown analyzer: every buffer drawn from
// a tensor.Arena must be released (Put/PutFloats) or detached on every path
// before the function exits, and never touched after release.
package fixture

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// leakOnError forgets the scratch buffer on the early error return — the
// exact shape of the kernel bugs this analyzer was built to catch.
func leakOnError(a *tensor.Arena, n int) (*tensor.Tensor, error) {
	scratch := a.Get(n) // want "can leave the function still owned"
	if n > 1024 {
		return nil, fmt.Errorf("fixture: batch of %d too large", n)
	}
	scratch.Data[0] = 1
	out := a.Get(n)
	out.Data[0] = scratch.Data[0]
	a.Put(scratch)
	return out, nil // out escapes by return: ownership transfers to the caller
}

// leakOnOnePath releases only when the flag is set.
func leakOnOnePath(a *tensor.Arena, n int, flag bool) {
	buf := a.Get(n) // want "can leave the function still owned"
	buf.Data[0] = 1
	if flag {
		a.Put(buf)
	}
}

// doubleRelease returns the same buffer to the arena twice, corrupting the
// free list for the next Get.
func doubleRelease(a *tensor.Arena, n int) {
	buf := a.Get(n)
	buf.Data[0] = 1
	a.Put(buf)
	a.Put(buf) // want "released twice"
}

// useAfterRelease reads a buffer the arena may already have re-issued.
func useAfterRelease(a *tensor.Arena, n int) float32 {
	buf := a.Get(n)
	buf.Data[0] = 2
	a.Put(buf)
	return buf.Data[0] // want "after it was released"
}

// releasedOnEveryPath is the contract-conformant shape of leakOnError: the
// error path returns the buffer before bailing out. No finding.
func releasedOnEveryPath(a *tensor.Arena, n int) error {
	buf := a.Get(n)
	if n > 1024 {
		a.Put(buf)
		return fmt.Errorf("fixture: batch of %d too large", n)
	}
	buf.Data[0] = 1
	a.Put(buf)
	return nil
}

// deferredRelease covers every path with one defer, including the borrow by
// a pool-dispatched closure (a use, not an escape). No finding.
func deferredRelease(a *tensor.Arena, p *parallel.Pool, n int) float32 {
	buf := a.Get(n)
	defer a.Put(buf)
	p.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf.Data[i] = float32(i)
		}
	})
	return buf.Data[0]
}

// detachTransfers hands the buffer to the caller for keeps: Detach makes the
// arena forget it, so returning it afterwards is legal. No finding.
func detachTransfers(a *tensor.Arena, n int) *tensor.Tensor {
	out := a.Get(n)
	out.Data[0] = 3
	a.Detach(out)
	return out
}

// floatsScratch exercises the raw-slice acquire/release pair. No finding.
func floatsScratch(a *tensor.Arena, n int) float32 {
	s := a.Floats(n)
	s[0] = 4
	v := s[0]
	a.PutFloats(s)
	return v
}
