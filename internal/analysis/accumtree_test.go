package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/softfloat"
	"repro/internal/trace"
	"repro/internal/workload"
)

func model(t testing.TB, kind workload.ProbeKind, n int) *analysis.AccumTree {
	t.Helper()
	m, err := workload.ProbeModel(workload.ProbeSpec{Kind: kind, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenFingerprints pins canonical forms and fingerprints for the
// suite's kernel shapes. A fingerprint change here is a change to the
// canonicalization itself and invalidates every stored corpus — bump
// deliberately.
func TestGoldenFingerprints(t *testing.T) {
	cases := []struct {
		kind      workload.ProbeKind
		n         int
		canonical string
		golden    string
	}{
		{workload.ProbeSerial, 2, "(0 1)", "accum:n=2:8501b6d56e4bb161"},
		{workload.ProbeSerial, 3, "((0 1) 2)", "accum:n=3:c3f610da8ac53351"},
		{workload.ProbeSerial, 4, "(((0 1) 2) 3)", "accum:n=4:d1cc2bc2ba960123"},
		{workload.ProbeSerial, 8, "(((((((0 1) 2) 3) 4) 5) 6) 7)", "accum:n=8:59b63a87a845cc24"},
		{workload.ProbeSerial, 64, "", "accum:n=64:0baac1cb5d30a023"},
		{workload.ProbePairwise, 4, "((0 1) (2 3))", "accum:n=4:ba883afbbfa8f930"},
		{workload.ProbePairwise, 8, "(((0 1) (2 3)) ((4 5) (6 7)))", "accum:n=8:cc208b8f468d1dee"},
		{workload.ProbePairwise, 16, "((((0 1) (2 3)) ((4 5) (6 7))) (((8 9) (10 11)) ((12 13) (14 15))))", "accum:n=16:8709932edd30c722"},
		{workload.ProbePairwise, 64, "", "accum:n=64:bd222fa670b029de"},
		{workload.ProbeBlocked, 8, "((((0 1) 2) 3) (((4 5) 6) 7))", "accum:n=8:2682f61bb88e180c"},
		{workload.ProbeBlocked, 16, "((((((0 1) 2) 3) (((4 5) 6) 7)) (((8 9) 10) 11)) (((12 13) 14) 15))", "accum:n=16:0f37c182f1339755"},
		{workload.ProbeBlocked, 64, "", "accum:n=64:ff7cbbb18988057a"},
		{workload.ProbeStrided, 8, "((((0 4) (1 5)) (2 6)) (3 7))", "accum:n=8:d07bb4a7a87c0be5"},
		{workload.ProbeStrided, 64, "", "accum:n=64:01068ceb74948d53"},
		{workload.ProbeVecMask, 8, "(((((((0 1) 2) 3) 4) 5) 6) 7)", "accum:n=8:59b63a87a845cc24"},
		{workload.ProbeVecMask, 16, "((((((((0 8) (1 9)) (2 10)) (3 11)) (4 12)) (5 13)) (6 14)) (7 15))", "accum:n=16:b48b6c45ab998939"},
		{workload.ProbeVecMask, 64, "", "accum:n=64:dabc8306020e3e10"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.kind)+"/"+itoa(tc.n), func(t *testing.T) {
			m := model(t, tc.kind, tc.n)
			if tc.canonical != "" && m.Canonical() != tc.canonical {
				t.Errorf("canonical = %s, want %s", m.Canonical(), tc.canonical)
			}
			if got := m.Fingerprint(); got != tc.golden {
				t.Errorf("fingerprint = %s, want %s", got, tc.golden)
			}
		})
	}
	one := analysis.AccumLeaf(0)
	if one.Fingerprint() != "accum:n=1:5feceb66ffc86f38" {
		t.Errorf("n=1 fingerprint = %s", one.Fingerprint())
	}
}

// TestCommutedOperandsCanonicalize checks the equivalence class:
// swapping add operand order anywhere in the tree (bit-invisible under
// IEEE addition) does not change the canonical form, while any actual
// reassociation does.
func TestCommutedOperandsCanonicalize(t *testing.T) {
	l := analysis.AccumLeaf
	serial := analysis.AccumJoin(analysis.AccumJoin(l(0), l(1)), l(2))
	commuted := analysis.AccumJoin(l(2), analysis.AccumJoin(l(1), l(0)))
	if serial.Canonical() != commuted.Canonical() {
		t.Errorf("commuted form %s != %s", commuted.Canonical(), serial.Canonical())
	}
	if serial.Fingerprint() != commuted.Fingerprint() {
		t.Errorf("commuted fingerprint differs")
	}
	reassoc := analysis.AccumJoin(l(0), analysis.AccumJoin(l(1), l(2)))
	if serial.Canonical() == reassoc.Canonical() {
		t.Errorf("reassociated tree canonicalized to the serial form %s", serial.Canonical())
	}

	// Deep commutation: mirror every node of the pairwise n=16 tree.
	base := model(t, workload.ProbePairwise, 16)
	var mirror func(*analysis.AccumTree) *analysis.AccumTree
	mirror = func(n *analysis.AccumTree) *analysis.AccumTree {
		if n.IsLeaf() {
			return analysis.AccumLeaf(n.Leaf)
		}
		kids := make([]*analysis.AccumTree, 0, len(n.Kids))
		for i := len(n.Kids) - 1; i >= 0; i-- {
			kids = append(kids, mirror(n.Kids[i]))
		}
		return analysis.AccumJoin(kids...)
	}
	if got := mirror(base).Fingerprint(); got != base.Fingerprint() {
		t.Errorf("mirrored pairwise fingerprint %s != %s", got, base.Fingerprint())
	}
}

// TestBoundarySizesRoundTrip covers n=1..64: every kernel shape's model
// tree survives LCA-matrix recovery exactly, and the shapes that must
// be distinguishable are. Recovery is cubic-ish in n, so short mode
// checks only the boundary and power-of-two neighborhoods; the full
// sweep runs in long mode.
func TestBoundarySizesRoundTrip(t *testing.T) {
	kinds := []workload.ProbeKind{
		workload.ProbeSerial, workload.ProbePairwise,
		workload.ProbeBlocked, workload.ProbeStrided, workload.ProbeVecMask,
	}
	if rt, err := analysis.RecoverAccumTree(1, func(i, j int) int { panic("no pairs") }); err != nil || rt.Canonical() != "0" {
		t.Fatalf("n=1 recovery = %v, %v", rt, err)
	}
	sizes := make([]int, 0, 63)
	if testing.Short() {
		sizes = append(sizes, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)
	} else {
		for n := 2; n <= 64; n++ {
			sizes = append(sizes, n)
		}
	}
	for _, n := range sizes {
		for _, kind := range kinds {
			m := model(t, kind, n)
			rt, err := analysis.RecoverAccumTree(n, m.LCASize)
			if err != nil {
				t.Fatalf("%s n=%d: recover: %v", kind, n, err)
			}
			if rt.Canonical() != m.Canonical() {
				t.Fatalf("%s n=%d: recovered %s, want %s", kind, n, rt.Canonical(), m.Canonical())
			}
			if fp := m.Fingerprint(); !strings.HasPrefix(fp, "accum:n="+itoa(n)+":") {
				t.Fatalf("%s n=%d: malformed fingerprint %s", kind, n, fp)
			}
		}
		// Serial and pairwise association coincide only below n=4.
		serial, pairwise := model(t, workload.ProbeSerial, n), model(t, workload.ProbePairwise, n)
		if same := serial.Fingerprint() == pairwise.Fingerprint(); same != (n < 4) {
			t.Fatalf("n=%d: serial/pairwise fingerprint equality = %v", n, same)
		}
	}
}

// TestRecoverRejectsInconsistentMatrices drives the validation paths:
// matrices no tree can produce must error, not mis-reconstruct.
func TestRecoverRejectsInconsistentMatrices(t *testing.T) {
	cases := []struct {
		name string
		n    int
		sub  func(i, j int) int
	}{
		{"merged-but-full", 3, func(i, j int) int {
			// {0,1} and {0,2} proper subtrees force all three leaves into
			// one component, yet (1,2) claims the root: no partition.
			if i == 0 {
				return 2
			}
			return 3
		}},
		{"undersized-lca", 4, func(i, j int) int { return 1 }},
		{"oversized-lca", 3, func(i, j int) int { return 5 }},
		{"cyclic-overlap", 4, func(i, j int) int {
			// Claims {0,1}, {1,2}, {2,3} are all proper subtrees: their
			// union-find closure merges everything, leaving no partition.
			if j == i+1 {
				return 2
			}
			return 4
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tree, err := analysis.RecoverAccumTree(tc.n, tc.sub); err == nil {
				t.Fatalf("recovered %s from an impossible matrix", tree.Canonical())
			}
		})
	}
	if _, err := analysis.RecoverAccumTree(0, nil); err == nil {
		t.Fatal("n=0 recovered")
	}

	// A matrix where every pair meets at the root is not binary-tree
	// representable, but it is the signature of a simultaneous k-way
	// join; recovery deliberately returns the wide node (whose
	// fingerprint no binary kernel can collide with).
	wide, err := analysis.RecoverAccumTree(3, func(i, j int) int { return 3 })
	if err != nil {
		t.Fatalf("wide-join matrix rejected: %v", err)
	}
	if wide.Canonical() != "(0 1 2)" {
		t.Fatalf("wide-join recovery = %s, want (0 1 2)", wide.Canonical())
	}
}

// synthTrace builds the gadget-record stream a probe run with the given
// per-trial f-values would produce (interleaved with noise records that
// the extraction must ignore).
func synthTrace(fvals []int, noise bool) []trace.Record {
	var recs []trace.Record
	seq := uint64(0)
	add := func(op isa.Opcode, raised softfloat.Flags, tid uint32) {
		recs = append(recs, trace.Record{
			Seq: seq, TID: tid, Opcode: uint16(op), Raised: raised,
		})
		seq++
	}
	for _, f := range fvals {
		if noise {
			add(isa.OpADDSD, softfloat.FlagInexact, 1) // kernel absorption event
		}
		for k := 0; k < f; k++ {
			add(isa.OpMULSD, softfloat.FlagInexact, 1)
		}
		if noise {
			add(isa.OpMULSD, 0, 1) // exact MULSD: not a report
			add(isa.OpDIVSD, softfloat.FlagInexact, 1)
		}
		add(isa.OpDIVSD, softfloat.FlagDivideByZero, 1)
	}
	return recs
}

func fvalsOf(tree *analysis.AccumTree) []int {
	n := tree.LeafCount()
	pairs := analysis.ProbePairs(n)
	f := make([]int, len(pairs))
	for t, pr := range pairs {
		f[t] = n - tree.LCASize(pr[0], pr[1])
	}
	return f
}

// TestProbeTrialCountsContract covers the trace-extraction edge cases.
func TestProbeTrialCountsContract(t *testing.T) {
	m := model(t, workload.ProbeBlocked, 8)
	recs := synthTrace(fvalsOf(m), true)
	rt, err := analysis.RecoverProbeTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Canonical() != m.Canonical() {
		t.Fatalf("recovered %s, want %s", rt.Canonical(), m.Canonical())
	}

	if _, err := analysis.RecoverProbeTree(synthTrace([]int{1, 2}, false)); err == nil {
		t.Error("2 trials accepted (not triangular)")
	}
	if _, err := analysis.RecoverProbeTree(synthTrace([]int{5}, false)); err == nil {
		t.Error("f > n-2 accepted")
	}
	if _, err := analysis.RecoverProbeTree(nil); err == nil {
		t.Error("empty trace accepted")
	}

	trailing := synthTrace([]int{0}, false)
	trailing = append(trailing, trace.Record{Seq: 99, TID: 1, Opcode: uint16(isa.OpMULSD), Raised: softfloat.FlagInexact})
	if _, err := analysis.ProbeTrialCounts(trailing); err == nil {
		t.Error("trailing reports accepted")
	}

	crossTID := synthTrace([]int{0}, false)
	crossTID = append(crossTID, trace.Record{Seq: 100, TID: 2, Opcode: uint16(isa.OpDIVSD), Raised: softfloat.FlagDivideByZero})
	if _, err := analysis.ProbeTrialCounts(crossTID); err == nil {
		t.Error("multi-thread gadget stream accepted")
	}

	// Out-of-order delivery (cluster reassembly) must not matter: Seq
	// ordering is authoritative.
	shuffled := synthTrace(fvalsOf(m), false)
	for i := 0; i < len(shuffled)-1; i += 2 {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}
	rt2, err := analysis.RecoverProbeTree(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Fingerprint() != m.Fingerprint() {
		t.Fatalf("shuffled trace recovered %s, want %s", rt2.Fingerprint(), m.Fingerprint())
	}
}

func itoa(n int) string {
	digits := "0123456789"
	if n < 10 {
		return digits[n : n+1]
	}
	return itoa(n/10) + digits[n%10:n%10+1]
}

// TestLCASizeTable pins LCASize on a hand-built tree, including absent
// inputs and i == j.
func TestLCASizeTable(t *testing.T) {
	L := analysis.AccumLeaf
	tree := analysis.AccumJoin(analysis.AccumJoin(L(0), L(1)), analysis.AccumJoin(L(2), analysis.AccumJoin(L(3), L(4))))
	want := map[[2]int]int{
		{0, 1}: 2, {0, 2}: 5, {1, 4}: 5, {2, 3}: 3, {2, 4}: 3, {3, 4}: 2,
		{4, 3}: 2, {2, 2}: 1, {0, 7}: 0, {-1, 3}: 0,
	}
	for pair, size := range want {
		if got := tree.LCASize(pair[0], pair[1]); got != size {
			t.Errorf("LCASize%v = %d, want %d", pair, got, size)
		}
	}
}
