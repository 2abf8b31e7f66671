package analysis

// This file implements the FPRev-style accumulation-order analysis: the
// reconstruction of the exact accumulation tree a reduction used, from
// the monitor trace of a probe run (see internal/workload's probe
// generator).
//
// The probe technique is numerical, not instrumentation-based. For an
// n-input reduction, most inputs are 1.0 and a large mass M with its
// negative -M are placed at positions i and j, where M is chosen so that
// (n-2) + M == M in binary64. Any partial sum containing one mass
// absorbs every 1.0 added to it (an inexact add); when the two masses
// meet — at the lowest common ancestor (LCA) of leaves i and j in the
// accumulation tree — they cancel exactly, and only the 1.0s
// accumulated strictly outside the LCA's subtree survive to the final
// result. The final sum is therefore the integer
//
//	f(i,j) = n - |leaves(LCA(i,j))|
//
// and sweeping all pairs yields every LCA subtree size, which determines
// the rooted tree exactly (recovered here by recursive partition).
//
// The guest encodes each trial's result into the trace itself using two
// dedicated gadget sites, making the trace stream self-describing:
//
//   - report site: a MULSD that always raises Inexact, executed f(i,j)
//     times after trial (i,j);
//   - separator site: a DIVSD of 1.0/0.0 that always raises
//     DivideByZero, executed once to close each trial.
//
// Probe programs use MULSD and DIVSD forms nowhere else, so opcode plus
// raised-condition filtering recovers the full f-matrix from any
// unsampled individual-mode trace, regardless of which execution engine
// (superblock fast path or precise, local or cluster-routed) produced
// it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// AccumTree is one node of a reconstructed (or modeled) accumulation
// tree. A node is either a leaf — one input of the reduction,
// identified by its 0-based position — or an internal node combining
// its children's partial sums.
type AccumTree struct {
	// Leaf is the input index; meaningful only when Kids is empty.
	Leaf int
	// Kids are the combined subtrees (two for a binary add; recovery
	// can in principle produce wider nodes from degenerate matrices).
	Kids []*AccumTree
}

// AccumLeaf returns a leaf node for input index i.
func AccumLeaf(i int) *AccumTree { return &AccumTree{Leaf: i} }

// AccumJoin returns an internal node combining the given subtrees.
func AccumJoin(kids ...*AccumTree) *AccumTree { return &AccumTree{Kids: kids} }

// IsLeaf reports whether the node is a leaf.
func (t *AccumTree) IsLeaf() bool { return len(t.Kids) == 0 }

// LeafCount returns the number of inputs under the node.
func (t *AccumTree) LeafCount() int {
	if t.IsLeaf() {
		return 1
	}
	n := 0
	for _, k := range t.Kids {
		n += k.LeafCount()
	}
	return n
}

// MinLeaf returns the smallest input index under the node.
func (t *AccumTree) MinLeaf() int {
	if t.IsLeaf() {
		return t.Leaf
	}
	m := t.Kids[0].MinLeaf()
	for _, k := range t.Kids[1:] {
		if v := k.MinLeaf(); v < m {
			m = v
		}
	}
	return m
}

// Canonical renders the tree in its canonical parenthesized form:
// leaves print their index, internal nodes print their children sorted
// by minimum leaf index. Because sibling leaf sets are disjoint, the
// sort order is total, so two trees have equal canonical forms exactly
// when they combine the same operand sets in the same association —
// commuted operand order (a+b vs b+a) canonicalizes away, reassociation
// does not. IEEE 754 addition is bit-commutative, so this is precisely
// the equivalence class that preserves guest-visible results.
func (t *AccumTree) Canonical() string {
	var sb strings.Builder
	t.canon(&sb)
	return sb.String()
}

func (t *AccumTree) canon(sb *strings.Builder) {
	if t.IsLeaf() {
		sb.WriteString(strconv.Itoa(t.Leaf))
		return
	}
	kids := make([]*AccumTree, len(t.Kids))
	copy(kids, t.Kids)
	sort.Slice(kids, func(i, j int) bool { return kids[i].MinLeaf() < kids[j].MinLeaf() })
	sb.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			sb.WriteByte(' ')
		}
		k.canon(sb)
	}
	sb.WriteByte(')')
}

// Fingerprint returns the canonical tree fingerprint: the input count
// plus a truncated SHA-256 of the canonical form. Two runs have equal
// fingerprints exactly when they used equivalent accumulation orders.
func (t *AccumTree) Fingerprint() string {
	sum := sha256.Sum256([]byte(t.Canonical()))
	return fmt.Sprintf("accum:n=%d:%s", t.LeafCount(), hex.EncodeToString(sum[:8]))
}

// LCASize returns the number of leaves under the lowest common ancestor
// of inputs i and j — the quantity a probe trial measures as n-f(i,j) —
// or 0 when either is absent. It is one walk of the tree.
func (t *AccumTree) LCASize(i, j int) int {
	_, _, _, size := t.lcaWalk(i, j)
	return size
}

// lcaWalk reports whether t holds inputs i and j, its leaf count, and
// the leaf count of the smallest subtree holding both, or 0 when t
// lacks either. Where several kids hold both, the first one's counts.
func (t *AccumTree) lcaWalk(i, j int) (hasI, hasJ bool, leaves, lca int) {
	if t.IsLeaf() {
		hasI, hasJ = t.Leaf == i, t.Leaf == j
		if hasI && hasJ {
			lca = 1
		}
		return hasI, hasJ, 1, lca
	}
	for _, k := range t.Kids {
		ki, kj, kl, klca := k.lcaWalk(i, j)
		hasI, hasJ, leaves = hasI || ki, hasJ || kj, leaves+kl
		if lca == 0 {
			lca = klca
		}
	}
	if lca == 0 && hasI && hasJ {
		lca = leaves
	}
	return hasI, hasJ, leaves, lca
}

// RecoverAccumTree reconstructs the accumulation tree of an n-input
// reduction from its LCA subtree sizes: sub(i, j) must return
// |leaves(LCA(i,j))| for i < j, as measured by the probe sweep. The
// recovery is the recursive-partition form of FPRev's LCA analysis: at
// a node covering leaf set S, two leaves share a child subtree exactly
// when their LCA is smaller than |S|; the connected components of that
// relation are the children, recursively.
func RecoverAccumTree(n int, sub func(i, j int) int) (*AccumTree, error) {
	if n < 1 {
		return nil, fmt.Errorf("accumtree: no inputs")
	}
	sizes := make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sizes[i*n+j] = sub(i, j)
		}
	}
	return recoverSizes(n, sizes)
}

// recoverSizes is RecoverAccumTree over the LCA sizes already queried:
// sizes[i*n+j] is |leaves(LCA(i,j))| for i < j. Each level of the
// recursion reads the pairs of its own leaf set from the matrix.
func recoverSizes(n int, sizes []int) (*AccumTree, error) {
	leaves := make([]int, n)
	for i := range leaves {
		leaves[i] = i
	}
	return recoverSet(leaves, func(i, j int) int { return sizes[i*n+j] })
}

func recoverSet(set []int, sub func(i, j int) int) (*AccumTree, error) {
	if len(set) == 1 {
		return AccumLeaf(set[0]), nil
	}
	// Union-find over the set: connect i~j when their LCA is strictly
	// below this node.
	parent := make([]int, len(set))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for a := 0; a < len(set); a++ {
		for b := a + 1; b < len(set); b++ {
			i, j := set[a], set[b]
			if i > j {
				i, j = j, i
			}
			s := sub(i, j)
			if s < 2 || s > len(set) {
				return nil, fmt.Errorf("accumtree: inconsistent matrix: |LCA(%d,%d)| = %d with %d leaves in scope",
					i, j, s, len(set))
			}
			if s < len(set) {
				parent[find(a)] = find(b)
			}
		}
	}
	groups := map[int][]int{}
	var roots []int
	for a := range set {
		r := find(a)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], set[a])
	}
	if len(roots) < 2 {
		return nil, fmt.Errorf("accumtree: inconsistent matrix: %d leaves form no partition", len(set))
	}
	// Deterministic child order (canonicalization re-sorts anyway).
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })
	kids := make([]*AccumTree, 0, len(roots))
	for _, r := range roots {
		kid, err := recoverSet(groups[r], sub)
		if err != nil {
			return nil, err
		}
		kids = append(kids, kid)
	}
	return AccumJoin(kids...), nil
}

// ProbePairs enumerates the probe trial order: all unordered input
// pairs (i, j), i < j, lexicographically. Probe generators and the
// trace analysis share this canonical order, which is what makes a
// probe trace self-describing.
func ProbePairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// probeSizeFromTrials inverts T = n(n-1)/2.
func probeSizeFromTrials(trials int) (int, error) {
	n := 2
	for ; n*(n-1)/2 < trials; n++ {
	}
	if n*(n-1)/2 != trials {
		return 0, fmt.Errorf("accumtree: %d trials is not a pair sweep (want n(n-1)/2)", trials)
	}
	return n, nil
}

// isProbeReport matches the report-gadget records of a probe trace.
func isProbeReport(r *trace.Record) bool {
	return isa.Opcode(r.Opcode) == isa.OpMULSD && r.Raised&softfloat.FlagInexact != 0
}

// isProbeSeparator matches the trial-separator records of a probe trace.
func isProbeSeparator(r *trace.Record) bool {
	return isa.Opcode(r.Opcode) == isa.OpDIVSD && r.Raised&softfloat.FlagDivideByZero != 0
}

// ProbeTrialCounts extracts the per-trial report counts — the f-values
// — from an unsampled individual-mode probe trace. Gadget records must
// all come from one thread (the probe's measurement thread); other
// threads' records and the kernel's own absorption events are ignored.
func ProbeTrialCounts(recs []trace.Record) ([]int, error) {
	type gadget struct {
		seq uint64
		sep bool
	}
	var gs []gadget
	var tid uint32
	seen := false
	for i := range recs {
		r := &recs[i]
		rep, sep := isProbeReport(r), isProbeSeparator(r)
		if !rep && !sep {
			continue
		}
		if !seen {
			tid, seen = r.TID, true
		} else if r.TID != tid {
			return nil, fmt.Errorf("accumtree: gadget records from multiple threads (tid %d and %d)", tid, r.TID)
		}
		gs = append(gs, gadget{seq: r.Seq, sep: sep})
	}
	if !seen {
		return nil, fmt.Errorf("accumtree: no probe gadget records in trace (not a probe run, or a sampled one)")
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].seq < gs[j].seq })
	var counts []int
	cur := 0
	for _, g := range gs {
		if g.sep {
			counts = append(counts, cur)
			cur = 0
			continue
		}
		cur++
	}
	if cur != 0 {
		return nil, fmt.Errorf("accumtree: %d report records after the final separator (truncated trace?)", cur)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("accumtree: no completed trials in trace")
	}
	return counts, nil
}

// RecoverProbeTree reconstructs the accumulation tree from a probe
// run's monitor trace: per-trial f-values from the gadget records, LCA
// subtree sizes s(i,j) = n - f(i,j), then recursive-partition recovery.
func RecoverProbeTree(recs []trace.Record) (*AccumTree, error) {
	counts, err := ProbeTrialCounts(recs)
	if err != nil {
		return nil, err
	}
	n, err := probeSizeFromTrials(len(counts))
	if err != nil {
		return nil, err
	}
	sizes := make([]int, n*n)
	for t, pr := range ProbePairs(n) {
		f := counts[t]
		if f > n-2 {
			return nil, fmt.Errorf("accumtree: trial (%d,%d) reports %d survivors of %d ones", pr[0], pr[1], f, n-2)
		}
		sizes[pr[0]*n+pr[1]] = n - f
	}
	return recoverSizes(n, sizes)
}
