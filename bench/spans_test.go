package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "round", Start: 0, End: 100},
		// Two workers under one round: [10,50] and [30,70] overlap, so
		// together they cover 60, not 80.
		{Trace: 1, ID: 2, Parent: 1, Name: "pass", Lane: 0, Start: 10, End: 50},
		{Trace: 1, ID: 3, Parent: 1, Name: "pass", Lane: 1, Start: 30, End: 70},
		// A child running past its parent's end counts only inside it.
		{Trace: 1, ID: 4, Parent: 1, Name: "check", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{Trace: 1, ID: 5, Parent: 2, Name: "decode", Start: 20, End: 30},
	}
	got := map[string]layerTime{}
	for _, row := range selfTimes(spans) {
		got[row.Name] = row
	}
	want := map[string]layerTime{
		"round":  {Name: "round", Count: 1, TotalNS: 100, SelfNS: 100 - 70},
		"pass":   {Name: "pass", Count: 2, TotalNS: 80, SelfNS: 80 - 10},
		"check":  {Name: "check", Count: 1, TotalNS: 30, SelfNS: 30},
		"decode": {Name: "decode", Count: 1, TotalNS: 10, SelfNS: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{0, 10}, {5, 8}}, 10},
		{[][2]int64{{50, 60}, {0, 10}}, 20},
		{[][2]int64{{-5, 5}, {95, 200}}, 10},
		{[][2]int64{{200, 300}}, 0},
	} {
		var spans []Span
		for _, iv := range c.ivs {
			spans = append(spans, Span{Start: iv[0], End: iv[1]})
		}
		if got := covered(0, 100, spans); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestRecorderNestsAndAdopts(t *testing.T) {
	var r recorder
	sentinel := errors.New("layer failed")
	err := r.span(7, 0, "round", 0, func(id uint64) error {
		return r.span(7, id, "fpspy.run", 0, func(uint64) error { return sentinel })
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("span returned %v, want the callback's error", err)
	}
	// A child process's spans keep their shape and hang off the parent.
	r.adopt([]Span{
		{ID: 1, Name: "child", Start: 1, End: 9},
		{ID: 2, Parent: 1, Name: "grandchild", Start: 2, End: 3},
	}, 8, 1)
	byName := map[string]Span{}
	for _, s := range r.all() {
		byName[s.Name] = s
	}
	round, run := byName["round"], byName["fpspy.run"]
	if run.Parent != round.ID || run.Trace != 7 || round.Parent != 0 {
		t.Errorf("nesting lost: round %+v, run %+v", round, run)
	}
	if run.End < run.Start || round.End < run.End {
		t.Errorf("child interval not inside parent: round %+v, run %+v", round, run)
	}
	child, grand := byName["child"], byName["grandchild"]
	if child.Parent != 1 || grand.Parent != child.ID || child.Trace != 8 || grand.Trace != 8 {
		t.Errorf("adopted spans not remapped: child %+v, grandchild %+v", child, grand)
	}
	ids := map[uint64]bool{}
	for _, s := range r.all() {
		if ids[s.ID] {
			t.Errorf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = true
	}

	var nilRec *recorder
	called := false
	if err := nilRec.span(1, 0, "x", 0, func(id uint64) error { called = id == 0; return nil }); err != nil || !called {
		t.Errorf("nil recorder must still run the callback with id 0")
	}
	nilRec.adopt([]Span{{ID: 1}}, 1, 0)
	if nilRec.all() != nil {
		t.Errorf("nil recorder recorded spans")
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	err := writeChromeTrace(&buf, []Span{
		{Trace: 3, ID: 2, Parent: 1, Name: "http.submit", Lane: 1, Start: 2500, End: 4500},
		{Trace: 3, ID: 1, Name: "job", Lane: 1, Start: 1000, End: 9000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "X" || ev.TS != 1.5 || ev.Dur != 2 || ev.TID != 1 ||
		ev.Args["trace"] != 3 || ev.Args["span"] != 2 || ev.Args["parent"] != 1 {
		t.Errorf("event = %+v", ev)
	}

	var table strings.Builder
	writeSelfTimes(&table, selfTimes([]Span{{ID: 1, Name: "job", Start: 0, End: 2e6}}))
	if !strings.Contains(table.String(), "job") || !strings.Contains(table.String(), "2.000") {
		t.Errorf("self-time table:\n%s", table.String())
	}
}
