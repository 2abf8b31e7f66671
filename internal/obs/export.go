package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of a Chrome trace_event file. Timestamps and
// durations are microseconds (float), as chrome://tracing and Perfetto
// expect.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ExportChromeTrace writes the surviving events as a Chrome trace_event
// JSON document ({"traceEvents": [...]}), loadable in chrome://tracing
// or Perfetto.
func (t *Tracer) ExportChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, len(evs))}
	for i, ev := range evs {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Ph: string(rune(ev.Phase)),
			TS: float64(ev.TS) / 1e3, PID: ev.PID, TID: ev.TID,
		}
		if ev.Phase == PhaseComplete {
			ce.Dur = float64(ev.Dur) / 1e3
		}
		if ev.ArgName != "" {
			ce.Args = map[string]any{ev.ArgName: ev.Arg}
		}
		out.TraceEvents[i] = ce
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
