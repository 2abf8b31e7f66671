package analysis

import "testing"

func TestFeasibilityModel(t *testing.T) {
	// Heavy skew: one hot site takes nearly all events. Patching wins
	// when per-event emulation is cheaper than the trap cost.
	byAddr := []RankEntry{{Key: "0x400010", Count: 1_000_000}, {Key: "0x400020", Count: 10}}
	byForm := []RankEntry{{Key: "mulsd", Count: 1_000_000}, {Key: "divsd", Count: 10}}
	rep := Feasibility(byAddr, byForm, 50_000, 150, 4_000)
	if !rep.PatchWins {
		t.Errorf("patching should win: %+v", rep)
	}
	if rep.Sites99 != 1 || rep.Forms99 != 1 {
		t.Errorf("coverage: %+v", rep)
	}
	// Without locality (every event on its own site) patching loses.
	var flat []RankEntry
	for i := 0; i < 1000; i++ {
		flat = append(flat, RankEntry{Key: analysisKey(i), Count: 1})
	}
	rep2 := Feasibility(flat, byForm, 50_000, 150, 4_000)
	if rep2.PatchWins {
		t.Errorf("patching should lose without locality: %+v", rep2)
	}
	// Empty input.
	rep3 := Feasibility(nil, nil, 1, 1, 1)
	if rep3.TotalEvents != 0 || rep3.PatchWins {
		t.Errorf("empty: %+v", rep3)
	}
}

func analysisKey(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/260))
}
