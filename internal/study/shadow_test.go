package study_test

// The workload-corpus leg of the shadow transparency criterion (the
// chaos-family leg lives in internal/chaos): every corpus app run with
// the shadow channel attached must produce bit-identical guest-visible
// outcomes — retirement counts, exit codes, memory, trace records,
// monitor logs — to the same run without it. Plus the ShadowMatrix
// surface itself: cells produce ranked site tables and the negative
// precision-53 control reports zero divergence.

import (
	"fmt"
	"hash/fnv"
	"testing"

	fpspy "repro"
	"repro/internal/study"
	"repro/internal/workload"
)

// runOutcome is everything a guest or monitor-log consumer could
// observe from one run.
type runOutcome struct {
	steps    uint64
	exit     int
	memSum   uint64
	records  int
	recSum   uint64
	monLog   string
	traceErr bool
}

func outcomeOf(t *testing.T, name string, prec uint64) runOutcome {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpspy.Run(w.Build(workload.SizeSmall), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, ShadowPrec: prec},
	})
	if err != nil {
		t.Fatalf("%s prec %d: %v", name, prec, err)
	}
	out := runOutcome{
		steps:    res.Steps,
		exit:     res.ExitCode,
		monLog:   res.Store.MonitorLog(),
		traceErr: res.TraceErr != nil,
	}
	h := fnv.New64a()
	res.Proc.Mem.EachPage(func(addr uint64, data []byte) {
		fmt.Fprintf(h, "%#x:", addr)
		h.Write(data)
	})
	out.memSum = h.Sum64()
	recs, err := res.Store.AllRecords()
	if err != nil {
		t.Fatalf("%s prec %d: records: %v", name, prec, err)
	}
	out.records = len(recs)
	rh := fnv.New64a()
	for i := range recs {
		fmt.Fprintf(rh, "%+v;", recs[i])
	}
	out.recSum = rh.Sum64()
	return out
}

func TestShadowCorpusDifferential(t *testing.T) {
	for _, w := range workload.Apps() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			off := outcomeOf(t, w.Meta.Name, 0)
			on := outcomeOf(t, w.Meta.Name, 113)
			if off != on {
				t.Fatalf("shadow channel changed observable state:\noff: %+v\non:  %+v", off, on)
			}
		})
	}
}

// TestShadowMatrixCells: the -shadow study surface produces a ranked
// table per corpus cell, and the prec-53 leg — bit-exact to the
// hardware by the conformance suite — reports zero divergence.
func TestShadowMatrixCells(t *testing.T) {
	s := study.New()
	r := s.ShadowMatrix([]study.ShadowCell{
		{Workload: "nas-cg", Prec: 113},
		{Workload: "nas-cg", Prec: 53},
	})
	if r.Failures != 0 {
		t.Fatalf("%d cell failures", r.Failures)
	}
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	c113, c53 := r.Cells[0], r.Cells[1]
	if c113.Sites == 0 || c113.Ops == 0 || c113.LocalUlps <= 0 {
		t.Fatalf("prec-113 cell empty: %+v", c113)
	}
	if c113.TopOp == "" || c113.TopLocalUlps <= 0 {
		t.Fatalf("prec-113 cell has no top site: %+v", c113)
	}
	if len(c113.TopSites) != c113.Sites {
		t.Fatalf("ranked table carries %d sites, summary says %d", len(c113.TopSites), c113.Sites)
	}
	for i := 1; i < len(c113.TopSites); i++ {
		if c113.TopSites[i].LocalUlps > c113.TopSites[i-1].LocalUlps {
			t.Fatalf("table not ranked at %d: %+v", i, c113.TopSites)
		}
	}
	if c53.MaxUlps != 0 {
		t.Fatalf("prec-53 shadow diverged %d ulps from hardware; conformance broken", c53.MaxUlps)
	}
	if c53.Ops == 0 {
		t.Fatal("prec-53 cell shadow-executed nothing")
	}
}
