package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace writes spans as a Chrome trace-event JSON array (complete
// "X" events with name, cat, ts/dur in microseconds, pid, tid, args). It is
// the one trace writer: internal/memsim's Report.ChromeTrace turns the
// modeled iteration into spans and calls it, so a measured trace opens side
// by side with a modeled one in chrome://tracing or ui.perfetto.dev. pid
// labels the process track — use distinct pids to keep several scenarios (or
// measured-vs-modeled pairs) apart in one viewer.
//
// Span names gain a " (fwd)" / " (bwd)" suffix when the span carries a pass
// direction. Timestamps convert from the tracer's nanosecond clock to trace
// microseconds; sub-microsecond spans render as 1µs so they stay visible.
// Args maps serialize with sorted keys (encoding/json), keeping the byte
// stream deterministic.
func WriteChromeTrace(w io.Writer, spans []Span, pid int) error {
	type event struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat"`
		Ph   string             `json:"ph"`
		TS   int64              `json:"ts"`
		Dur  int64              `json:"dur"`
		PID  int                `json:"pid"`
		TID  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	if pid < 1 {
		pid = 1
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		name := s.Name
		if s.Dir != "" {
			name = fmt.Sprintf("%s (%s)", s.Name, s.Dir)
		}
		tid := s.TID
		if tid < 1 {
			tid = 1
		}
		dur := s.Dur / 1e3
		if dur < 1 {
			dur = 1
		}
		events = append(events, event{
			Name: name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   s.Start / 1e3,
			Dur:  dur,
			PID:  pid,
			TID:  tid,
			Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
