package study_test

// The workload-corpus leg of the shadow transparency criterion (the
// chaos-family leg lives in internal/chaos): every corpus app run with
// the shadow channel attached must produce bit-identical guest-visible
// outcomes — retirement counts, exit codes, memory, trace records,
// monitor logs — to the same run without it. Plus the ShadowMatrix
// surface itself: cells produce ranked site tables and the negative
// precision-53 control reports zero divergence.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// shadowMatrixSHA256 is the SHA-256 of the JSON report of the seven
// applications at SizeSmall with mitigated legs at 113 bits: the bytes
// fpstudy -shadow -mitprec 113 -shadowout writes.
const shadowMatrixSHA256 = "f5158a62cf7a079c2611166a0d91786dd57646e0107f47d7ce074d367da76676"

// TestShadowMatrixLegsMerge: the matrix runs each cell's shadowed and
// mitigated legs as separate tasks and merges them by cell. The report
// is byte-identical at 1 and 4 workers and hashes to the pinned value.
// A cell whose workload is unknown fails in its shadowed leg: it
// reports the registry's error with zero Mit* fields, and the cell
// after it is unaffected.
func TestShadowMatrixLegsMerge(t *testing.T) {
	cells := study.DefaultShadowCells(nil, study.DefaultShadowPrec, study.DefaultShadowPrec, workload.SizeSmall)
	var reports [][]byte
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if err := study.NewWithWorkers(workers).ShadowMatrix(cells).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, buf.Bytes())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("report at 4 workers differs from 1 worker:\n%s\nvs\n%s", reports[1], reports[0])
	}
	if sum := sha256.Sum256(reports[0]); hex.EncodeToString(sum[:]) != shadowMatrixSHA256 {
		t.Errorf("report hashes to %x, want %s:\n%s", sum, shadowMatrixSHA256, reports[0])
	}

	r := study.NewWithWorkers(2).ShadowMatrix([]study.ShadowCell{
		{Workload: "no-such-app", MitPrec: 113},
		{Workload: "wrf", MitPrec: 113},
	})
	bad, wrf := r.Cells[0], r.Cells[1]
	if r.Failures != 1 || bad.Err != `workload: unknown workload "no-such-app"` || bad.Prec != study.DefaultShadowPrec {
		t.Errorf("unknown workload: %d failures, cell %+v", r.Failures, bad)
	}
	if bad.MitPrec != 0 || bad.MitEmulated != 0 || bad.MitImproved != 0 || bad.Steps != 0 {
		t.Errorf("unknown workload reports leg results: %+v", bad)
	}
	if wrf.Err != "" || wrf.Steps == 0 || wrf.MitPrec != 113 || wrf.MitEmulated == 0 {
		t.Errorf("wrf after the failed cell: %+v", wrf)
	}
}
