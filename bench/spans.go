package main

// The benchmark's own span recorder. Spans wrap the benchmark's calls
// into each layer of the program (nothing inside the program is
// instrumented); every span of one operation — a round, a matrix, a
// service job — shares that operation's trace ID. Spans stay in memory
// and are written out when the run ends, as a per-layer self-time table
// and a Chrome trace_event file.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Times are Unix nanoseconds, so spans
// recorded by a child process line up with the parent's.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Lane is the concurrent lane (client or worker) the span ran on; it
	// becomes the Chrome trace thread.
	Lane  int   `json:"lane"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// recorder collects spans. A nil *recorder records nothing, so untraced
// runs pass nil and pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	next  uint64
	spans []Span
}

// span runs fn inside a span named name and records it, passing fn the
// new span's ID for use as its children's parent.
func (r *recorder) span(trace, parent uint64, name string, lane int, fn func(id uint64) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	start := time.Now().UnixNano()
	err := fn(id)
	end := time.Now().UnixNano()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name, Lane: lane, Start: start, End: end})
	r.mu.Unlock()
	return err
}

// adopt merges spans recorded elsewhere (a child process) under parent:
// they get fresh IDs, join trace, and their roots become parent's
// children.
func (r *recorder) adopt(spans []Span, trace, parent uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		r.next++
		ids[s.ID] = r.next
	}
	for _, s := range spans {
		s.Trace = trace
		s.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = parent
		}
		r.spans = append(r.spans, s)
	}
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes totals span time by name. A span's self time is its
// duration minus the union of its children's intervals (clipped to the
// span), so children that overlap — two workers under one round — are
// not subtracted twice. Rows are sorted by self time, largest first.
func selfTimes(spans []Span) []layerTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.TotalNS += dur
		row.SelfNS += dur - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the spans' intervals
// within [start, end].
func covered(start, end int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, start), min(s.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// writeSelfTimes renders the self-time table.
func writeSelfTimes(w io.Writer, rows []layerTime) {
	var all int64
	for _, r := range rows {
		all += r.SelfNS
	}
	fmt.Fprintf(w, "%-24s %8s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.SelfNS) / float64(all)
		}
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6, share)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// writeChromeTrace exports spans as a Chrome trace_event document
// (chrome://tracing, Perfetto), timestamps relative to the first span.
func writeChromeTrace(w io.Writer, spans []Span) error {
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]uint64{"trace": s.Trace, "span": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
