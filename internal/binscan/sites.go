package binscan

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/shadow"
)

// Site is one statically discovered floating point instruction site: an
// instruction that can raise IEEE 754 condition codes and therefore trap
// under FPSpy's unmasking.
type Site struct {
	// Index is the instruction index.
	Index int
	// Addr is the instruction address (what trace records report as rip).
	Addr uint64
	// Op is the instruction form.
	Op isa.Opcode
	// Reachable marks sites in blocks reachable from the entry or an
	// address-taken root.
	Reachable bool
	// Emulable marks forms the Section 6 mitigator emulates at high
	// precision (shadow.Emulable); a patched site holding any other form
	// would be unpatched on its first visit.
	Emulable bool
}

// LibcRef summarizes the static references to one libc symbol.
type LibcRef struct {
	// Sym is the symbol name.
	Sym string
	// Sites is the number of callc sites referencing it.
	Sites int
	// ReachableSites counts the referencing sites in reachable blocks.
	ReachableSites int
}

// Present reports whether the symbol is referenced anywhere in the text
// — the grep answer of the paper's Figure 8.
func (r LibcRef) Present() bool { return r.Sites > 0 }

// Reachable reports whether any referencing site is reachable — the
// distinction the paper's grep pass cannot make.
func (r LibcRef) Reachable() bool { return r.ReachableSites > 0 }

// Scan is the full static analysis of one program.
type Scan struct {
	// Prog is the analyzed program.
	Prog *isa.Program
	// CFG is the recovered control flow graph.
	CFG *CFG
	// Sites lists every floating point site in address order.
	Sites []Site
	// Libc lists referenced libc symbols in lexical order.
	Libc []LibcRef

	siteAt map[uint64]int // address -> index into Sites
}

// RaisesFP reports whether an instruction form can raise floating point
// condition codes (and so can fault under FPSpy). Moves never raise,
// even on denormal operands; every other floating point class can.
func RaisesFP(op isa.Opcode) bool {
	switch op.Info().Class {
	case isa.ClassFPArith, isa.ClassFMA, isa.ClassFPConvert,
		isa.ClassFPCompare, isa.ClassFPRound, isa.ClassFPDot:
		return true
	}
	return false
}

// ScanProgram runs the full static analysis: CFG recovery, the floating
// point site inventory, and the libc reference census.
func ScanProgram(p *isa.Program) *Scan {
	s := &Scan{Prog: p, CFG: BuildCFG(p), siteAt: make(map[uint64]int)}
	libc := make(map[string]*LibcRef)
	for i := range p.Insts {
		inst := &p.Insts[i]
		reach := s.CFG.InstReachable(i)
		if RaisesFP(inst.Op) {
			s.siteAt[p.AddrOf(i)] = len(s.Sites)
			s.Sites = append(s.Sites, Site{
				Index:     i,
				Addr:      p.AddrOf(i),
				Op:        inst.Op,
				Reachable: reach,
				Emulable:  shadow.Emulable(inst.Op),
			})
		}
		if inst.Op == isa.OpCALLC {
			ref := libc[inst.Sym]
			if ref == nil {
				ref = &LibcRef{Sym: inst.Sym}
				libc[inst.Sym] = ref
			}
			ref.Sites++
			if reach {
				ref.ReachableSites++
			}
		}
	}
	for _, ref := range libc {
		s.Libc = append(s.Libc, *ref)
	}
	sort.Slice(s.Libc, func(i, j int) bool { return s.Libc[i].Sym < s.Libc[j].Sym })
	return s
}

// SiteAt returns the site at a code address, or nil when the address is
// not a floating point site.
func (s *Scan) SiteAt(addr uint64) *Site {
	if i, ok := s.siteAt[addr]; ok {
		return &s.Sites[i]
	}
	return nil
}

// SiteAddrs returns the addresses of all sites (reachableOnly restricts
// to the reachable subset), in the set form internal/analysis consumes.
func (s *Scan) SiteAddrs(reachableOnly bool) map[uint64]bool {
	out := make(map[uint64]bool, len(s.Sites))
	for i := range s.Sites {
		if reachableOnly && !s.Sites[i].Reachable {
			continue
		}
		out[s.Sites[i].Addr] = true
	}
	return out
}

// FormInventory counts sites per instruction form, most common first —
// the static counterpart of the Figure 17 dynamic rank table.
func (s *Scan) FormInventory(reachableOnly bool) []analysis.RankEntry {
	counts := make(map[string]uint64)
	for i := range s.Sites {
		if reachableOnly && !s.Sites[i].Reachable {
			continue
		}
		counts[s.Sites[i].Op.String()]++
	}
	out := make([]analysis.RankEntry, 0, len(counts))
	for k, c := range counts {
		out = append(out, analysis.RankEntry{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// AddressInventory lists each site as a rank entry with unit weight —
// the static counterpart of the Figure 19 address rank table, and the
// site-count input the Section 6 feasibility model takes.
func (s *Scan) AddressInventory(reachableOnly bool) []analysis.RankEntry {
	var out []analysis.RankEntry
	for i := range s.Sites {
		site := &s.Sites[i]
		if reachableOnly && !site.Reachable {
			continue
		}
		out = append(out, analysis.RankEntry{Key: analysis.FormatAddr(site.Addr), Count: 1})
	}
	return out
}

// PresentLibc returns the set of libc symbols referenced anywhere in the
// text, dead branches included: the static presence Figure 8 contrasts
// with dynamic execution.
func (s *Scan) PresentLibc() map[string]bool {
	out := make(map[string]bool, len(s.Libc))
	for _, r := range s.Libc {
		out[r.Sym] = true
	}
	return out
}

// ReachableLibc returns the subset of referenced symbols with at least
// one reachable call site.
func (s *Scan) ReachableLibc() map[string]bool {
	out := make(map[string]bool)
	for _, r := range s.Libc {
		if r.Reachable() {
			out[r.Sym] = true
		}
	}
	return out
}
