package obs

import (
	"fmt"
	"io"
	"sort"

	"bnff/internal/det"
)

// Structural span categories and their Chrome-trace tracks. Layer spans use
// the graph.LayerClass name as Cat and int(class)+1 as TID (tracks 1–7,
// matching internal/memsim); the envelopes that wrap them render on tracks
// above those so measured traces line up with modeled ones.
const (
	CatPass   = "pass"   // forward/backward pass envelope (core.Executor)
	CatPool   = "pool"   // worker-pool dispatch/drain (internal/parallel)
	CatStep   = "step"   // optimizer step / epoch envelope (internal/train)
	CatReduce = "reduce" // cross-replica all-reduce (internal/ddp)

	TIDPass   = 8
	TIDPool   = 9
	TIDStep   = 10
	TIDReduce = 11
)

// IsStructural reports whether a category is an envelope rather than layer
// work — the spans a layer breakdown must exclude to avoid double-counting.
func IsStructural(cat string) bool {
	return cat == CatPass || cat == CatPool || cat == CatStep || cat == CatReduce
}

// LayerBreakdown aggregates only layer-work spans, dropping the structural
// envelopes — the paper-Figure-1 view of a recorded trace.
func LayerBreakdown(spans []Span) Breakdown {
	return BreakdownOf(spans, func(cat string) bool { return !IsStructural(cat) })
}

// Breakdown aggregates spans into the paper's Figure-1-style layer-time
// breakdown: total time per category with the forward/backward split and
// each category's share of the aggregate. Build one with BreakdownOf.
type Breakdown struct {
	Rows    []BreakdownRow
	FwdNs   int64
	BwdNs   int64
	TotalNs int64
}

// BreakdownRow is one category's totals.
type BreakdownRow struct {
	Cat     string
	FwdNs   int64
	BwdNs   int64
	TotalNs int64
	Share   float64 // TotalNs over the breakdown's TotalNs
}

// BreakdownOf aggregates the spans whose category passes the include filter
// (nil: every span). Callers filter out structural spans — pass envelopes,
// pool dispatch — so layer categories are not double-counted. Rows sort by
// descending total time with category name as the deterministic tiebreak.
func BreakdownOf(spans []Span, include func(cat string) bool) Breakdown {
	type acc struct{ fwd, bwd, other int64 }
	byCat := make(map[string]*acc)
	var b Breakdown
	for _, s := range spans {
		if include != nil && !include(s.Cat) {
			continue
		}
		a := byCat[s.Cat]
		if a == nil {
			a = &acc{}
			byCat[s.Cat] = a
		}
		switch s.Dir {
		case "fwd":
			a.fwd += s.Dur
			b.FwdNs += s.Dur
		case "bwd":
			a.bwd += s.Dur
			b.BwdNs += s.Dur
		default:
			a.other += s.Dur
		}
		b.TotalNs += s.Dur
	}
	for _, cat := range det.SortedKeys(byCat) {
		a := byCat[cat]
		b.Rows = append(b.Rows, BreakdownRow{
			Cat: cat, FwdNs: a.fwd, BwdNs: a.bwd, TotalNs: a.fwd + a.bwd + a.other,
		})
	}
	if b.TotalNs > 0 {
		for i := range b.Rows {
			b.Rows[i].Share = float64(b.Rows[i].TotalNs) / float64(b.TotalNs)
		}
	}
	sort.SliceStable(b.Rows, func(i, j int) bool {
		if b.Rows[i].TotalNs != b.Rows[j].TotalNs {
			return b.Rows[i].TotalNs > b.Rows[j].TotalNs
		}
		return b.Rows[i].Cat < b.Rows[j].Cat
	})
	return b
}

// ShareOf returns a category's share of the breakdown total (0 when absent).
func (b Breakdown) ShareOf(cat string) float64 {
	for _, r := range b.Rows {
		if r.Cat == cat {
			return r.Share
		}
	}
	return 0
}

// WriteTable renders the breakdown as an aligned text table. When modeled is
// non-nil its shares appear as a fourth column — the measured-vs-modeled
// comparison cmd/bnff-profile prints against internal/memsim's prediction.
func (b Breakdown) WriteTable(w io.Writer, modeled map[string]float64) error {
	header := fmt.Sprintf("%-14s %10s %10s %10s %9s", "class", "fwd ms", "bwd ms", "total ms", "share")
	if modeled != nil {
		header += fmt.Sprintf(" %9s", "modeled")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range b.Rows {
		line := fmt.Sprintf("%-14s %10.3f %10.3f %10.3f %8.1f%%",
			r.Cat, float64(r.FwdNs)/1e6, float64(r.BwdNs)/1e6, float64(r.TotalNs)/1e6, 100*r.Share)
		if modeled != nil {
			line += fmt.Sprintf(" %8.1f%%", 100*modeled[r.Cat])
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-14s %10.3f %10.3f %10.3f %8.1f%%\n",
		"total", float64(b.FwdNs)/1e6, float64(b.BwdNs)/1e6, float64(b.TotalNs)/1e6, 100.0)
	return err
}

// CompareRow pairs one category's measured and modeled time shares.
type CompareRow struct {
	Cat      string
	Measured float64
	Modeled  float64
}

// CompareShares joins two share maps over the union of their categories,
// sorted by category name. Either side reads 0 where it lacks the category.
func CompareShares(measured, modeled map[string]float64) []CompareRow {
	union := make(map[string]bool, len(measured)+len(modeled))
	for c := range measured {
		union[c] = true
	}
	for c := range modeled {
		union[c] = true
	}
	rows := make([]CompareRow, 0, len(union))
	for _, c := range det.SortedKeys(union) {
		rows = append(rows, CompareRow{Cat: c, Measured: measured[c], Modeled: modeled[c]})
	}
	return rows
}
