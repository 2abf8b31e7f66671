package study

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden study output")

// studyWork is what a study has done: passes executed, pass traces
// decoded, and records decoded, as the passes' stores count them.
type studyWork struct{ passes, stores, records uint64 }

func (w studyWork) String() string {
	return fmt.Sprintf("passes executed %d\nstores decoded %d\nrecords decoded %d\n", w.passes, w.stores, w.records)
}

// work reads s's work counts off its pass cache. Call it with no pass
// or figure in flight.
func (s *Study) work() studyWork {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w studyWork
	for _, e := range s.results {
		w.passes++
		// A decoded empty trace is a non-nil empty slice.
		if e.recs != nil || e.recErr != nil {
			w.stores++
		}
		if e.res != nil {
			w.records += e.res.Store.Decoded.Load()
		}
	}
	return w
}

// TestGoldenStudyOutput pins the entire rendered study — every figure
// and table — against a golden file. The simulator, the workloads, the
// sampler seeds, and the analyses are all deterministic, so any diff
// here is a real behavior change. It also pins the work the
// regeneration does (work.golden): passes executed, stores decoded and
// records decoded. Those counts are exact, so a lost speedup that
// leaves every output alone, such as a trace decoded once per figure,
// fails here too. Regenerate both intentionally with:
//
//	go test ./internal/study -run Golden -update
//
// The paper's claims (claims_test.go) are checked on the same tables
// first, so neither a comparison nor -update gets past a study that
// breaks one.
func TestGoldenStudyOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	s := New()
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if checkPaperClaims(t, tables); t.Failed() {
		t.FailNow()
	}
	got := renderStudy(tables)
	golden := filepath.Join("testdata", "study.golden")
	workGolden := filepath.Join("testdata", "work.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGolden, []byte(s.work().String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes; work: %v", len(got), s.work())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	wantWork, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("work golden file missing (run with -update): %v", err)
	}
	if w := s.work().String(); w != string(wantWork) {
		t.Errorf("study work changed:\n got:\n%s want:\n%s", w, wantWork)
	}
	if d := firstDiff(got, string(want)); d != "" {
		t.Fatalf("study output %s", d)
	}
}

// renderStudy is the study as study.golden holds it.
func renderStudy(tables []*Table) string {
	var sb strings.Builder
	for _, tbl := range tables {
		sb.WriteString(tbl.Render())
		sb.WriteString("\n")
	}
	return sb.String()
}

// firstDiff says where got first departs from want, or "" if they match.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("diverged at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		return fmt.Sprintf("length changed: %d vs %d lines", len(gl), len(wl))
	}
	return ""
}
