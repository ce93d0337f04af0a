package memsim

import (
	"io"

	"bnff/internal/graph"
	"bnff/internal/obs"
)

// ChromeTrace writes the simulated iteration as a Chrome trace-event JSON
// array through obs.WriteChromeTrace, so a modeled trace shares the measured
// one's schema (load it at chrome://tracing or ui.perfetto.dev). Each
// operator becomes a complete event named "<node> (fwd|bwd)" on a track per
// layer class — a visual Figure 3. Its args are the roofline bound as the
// Bound ordinal (0 none, 1 compute, 2 memory, 3 cache), dram_bytes,
// achieved_GBps and gflops.
func (r *Report) ChromeTrace(w io.Writer) error {
	spans := make([]obs.Span, 0, len(r.Timings))
	for _, t := range r.Timings {
		if t.Time == 0 {
			continue
		}
		cls := graph.ClassConcat
		name := t.Cost.Node.Name
		if t.Cost.Synthetic {
			name += ".split"
		} else {
			cls = t.Cost.Node.Class()
		}
		dir := "fwd"
		if t.Cost.Dir == graph.Backward {
			dir = "bwd"
		}
		// Whole microseconds first, so the event times are the model's
		// seconds truncated to µs, whatever the nanosecond rounding.
		spans = append(spans, obs.Span{
			Name:  name,
			Cat:   cls.String(),
			Dir:   dir,
			TID:   int(cls) + 1,
			Start: int64(t.Start*1e6) * 1e3,
			Dur:   int64(t.Time*1e6) * 1e3,
			Args: map[string]float64{
				"bound":         float64(t.Bound),
				"dram_bytes":    float64(t.DRAMBytes),
				"achieved_GBps": t.Bandwidth() / 1e9,
				"gflops":        float64(t.Cost.FLOPs) / 1e9,
			},
		})
	}
	return obs.WriteChromeTrace(w, spans, 1)
}
