package study

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "Figure X",
		Title:  "Test",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"aaaa", "b"}, {"c", "dddddd"}},
		Notes:  []string{"a note"},
	}
	out := tbl.Render()
	if !strings.Contains(out, "Figure X — Test") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + 2 rows + note.
	if len(lines) != 5 {
		t.Errorf("lines = %d", len(lines))
	}
	// Columns aligned: all rows same prefix width.
	if len(lines[1]) < len("aaaa  b") {
		t.Error("misaligned")
	}
}

func TestMark(t *testing.T) {
	if mark(true) != "T" || mark(false) != "f" {
		t.Error("mark encoding")
	}
}

// TestFullStudyProducesAllArtifacts checks the entire Section 4
// methodology end-to-end — the integration test behind cmd/fpstudy and
// bench/'s study workload — on the regeneration TestGoldenStudyOutput
// pins.
func TestFullStudyProducesAllArtifacts(t *testing.T) {
	s, tables := fullStudy(t)
	if len(tables) != 15 {
		t.Fatalf("artifacts = %d, want 15", len(tables))
	}
	wantIDs := []string{
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "Figure 13", "Figure 14", "Figure 15",
		"Figure 16", "Figure 17", "Figure 18", "Figure 19", "Section 6",
	}
	for i, want := range wantIDs {
		if tables[i].ID != want {
			t.Errorf("artifact %d = %s, want %s", i, tables[i].ID, want)
		}
		if len(tables[i].Rows) == 0 {
			t.Errorf("%s has no rows", want)
		}
		if out := tables[i].Render(); len(out) < 40 {
			t.Errorf("%s renders to %d bytes", want, len(out))
		}
	}
	// The study is cached: regenerating a figure runs no pass, decodes
	// no trace, and is identical.
	before := s.work()
	again, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if again.Render() != tables[3].Render() {
		t.Error("cached regeneration differs")
	}
	if w := s.work(); w != before {
		t.Errorf("cached regeneration did work:\n%vthen\n%v", before, w)
	}
}

func TestStudyConfigs(t *testing.T) {
	if AggregateConfig().Mode != 0 {
		t.Error("aggregate config mode")
	}
	f := FilteredConfig()
	if f.ExceptList&0x20 != 0 { // Inexact excluded
		t.Error("filtered config includes Inexact")
	}
	sc := SampledConfig()
	if !sc.Poisson || !sc.VirtualTimer || sc.SampleOnUS == 0 {
		t.Errorf("sampled config = %+v", sc)
	}
}
