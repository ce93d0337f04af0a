package det

// Combine is one step of a tree reduction: fold operand From into operand
// Into. Into is always the smaller index, so the final result accumulates at
// index 0.
type Combine struct {
	Into, From int
}

// TreePlan returns the combine schedule of a fixed-order binary-tree
// reduction over n operands: strides double (1, 2, 4, ...) and within each
// stride the pairs (i, i+stride) run in ascending i. The schedule is a pure
// function of n — it does not depend on goroutine completion order, timing,
// or any runtime state — which is what makes a reduction that follows it
// bit-identical run to run. Within one stride the Into indices are pairwise
// distinct and every From was finalized by the previous stride, so a future
// parallel executor may run a stride's combines concurrently without
// changing the result.
//
// TreePlan(1) is empty: a single operand reduces to itself, untouched.
func TreePlan(n int) []Combine {
	if n < 2 {
		return nil
	}
	plan := make([]Combine, 0, n-1)
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			plan = append(plan, Combine{Into: i, From: i + stride})
		}
	}
	return plan
}

// TreeReduce folds xs with the TreePlan schedule: combine(into, from) runs
// once per plan step, in plan order, and the reduced value is xs[0]. combine
// must fold its second operand into its first; it must not touch any other
// element. With one operand combine never runs and xs[0] is returned
// untouched.
//
// This is the generalization of the package's collect-then-sort contract to
// reductions: SortedKeys pins iteration order, TreePlan pins combine order.
func TreeReduce[T any](xs []T, combine func(into, from T)) T {
	for _, c := range TreePlan(len(xs)) {
		combine(xs[c.Into], xs[c.From])
	}
	return xs[0]
}
