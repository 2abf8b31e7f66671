// Package workload implements the FPSpy study's applications and
// benchmark suites as guest programs: the seven applications/frameworks
// of the paper's Figure 7, the NAS kernels, and the PARSEC benchmarks.
//
// Each workload is a genuine (miniaturized) numerical kernel — a
// molecular dynamics force loop, a Sedov blast hydrodynamics step, a
// finite-volume Navier-Stokes stencil, Black-Scholes pricing, an
// unpivoted LU factorization, and so on — whose problematic floating
// point events arise from the numerics, not from scripted event
// injection: LAGHOS really divides by degenerate cell volumes, LU on a
// singular matrix really computes 0/0, deep out-of-the-money options
// really underflow.
//
// Program sizes and event rates are scaled down ~1000x from the paper's
// production runs (the simulator retires tens of millions of
// instructions per second, not billions), preserving the *shape* of
// every result: which events occur in which code, relative Inexact
// rates, instruction-form and address locality, and temporal patterns.
package workload

import (
	"fmt"

	"repro/internal/isa"
)

// Suite classifies workloads as in the paper's Figure 7.
type Suite string

const (
	// SuiteApp marks the seven applications/frameworks.
	SuiteApp Suite = "app"
	// SuiteParsec marks PARSEC 3.0 benchmarks.
	SuiteParsec Suite = "parsec"
	// SuiteNAS marks NAS 3.0 kernels.
	SuiteNAS Suite = "nas"
	// SuiteValidation marks the paper's Section 5 validation programs.
	SuiteValidation Suite = "validation"
)

// Size selects the problem size, the paper's "simlarge" vs smaller
// inputs (its Section 5.3 notes PARSEC's Overflow appears only at one
// problem size).
type Size int

const (
	// SizeSmall is a reduced input.
	SizeSmall Size = iota
	// SizeLarge is the study's default input.
	SizeLarge
)

// ParseSize reads a -size flag: "small" or "large".
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return SizeSmall, nil
	case "large":
		return SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// Meta carries the Figure 7 and Figure 8 bookkeeping for a workload.
type Meta struct {
	// Name is the workload's name as the paper spells it.
	Name string
	// Suite is the group it belongs to.
	Suite Suite
	// Languages lists implementation languages (Figure 7).
	Languages string
	// LOC is the paper-reported source size.
	LOC int
	// Deps lists the paper-reported dependencies.
	Deps []string
	// Problem is the example problem run in the study.
	Problem string
	// Concurrency is the single-node model used.
	Concurrency string
	// ExecTime is the paper-reported unencumbered execution time.
	ExecTime string
	// SourceRefs lists mechanisms found by static source analysis that
	// are not libc calls (SIG* macros, uc_mcontext fields, FE_ macros) —
	// the right-hand columns of Figure 8.
	SourceRefs []string
}

// Workload couples metadata with a program generator.
type Workload struct {
	// Meta is the bookkeeping.
	Meta Meta
	// Build generates the guest program at the given problem size.
	Build func(size Size) *isa.Program
}

var registry []*Workload

func register(w *Workload) *Workload {
	registry = append(registry, w)
	return w
}

// All returns every registered workload in registration order
// (applications, then PARSEC, then NAS).
func All() []*Workload { return registry }

// ByName finds a workload.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Meta.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// BySuite filters the registry.
func BySuite(s Suite) []*Workload {
	var out []*Workload
	for _, w := range registry {
		if w.Meta.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// Apps returns the seven applications.
func Apps() []*Workload { return BySuite(SuiteApp) }

// Parsec returns the PARSEC benchmarks.
func Parsec() []*Workload { return BySuite(SuiteParsec) }

// NAS returns the NAS kernels.
func NAS() []*Workload { return BySuite(SuiteNAS) }
