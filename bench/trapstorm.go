package main

// The trap-storm workload: unfiltered individual mode — every event,
// Inexact included, traps — over eight trap-dense guests, run serially
// in a seeded order, decoding every round's records. The paper's
// worst-case configuration: the kernel's two-trap signal protocol, the
// spy handler, trace encode/decode and allocation dominate, and
// emulation between faults is short.

import (
	"fmt"
	"math/rand"

	fpspy "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

var trapGuests = []string{"miniaero", "moose", "lammps", "enzo", "ext/radiosity", "canneal", "nas-ep", "nas-cg"}

func trapPrograms(c config) []namedProgram {
	if c.short {
		return buildNamed([]string{"canneal", "nas-ep", "nas-cg"}, workload.SizeSmall)
	}
	return buildNamed(trapGuests, workload.SizeLarge)
}

type trapBench struct {
	c     config
	progs []namedProgram
}

func newTrapBench(c config, _ *obs.Metrics) (runner, error) {
	return &trapBench{c: c, progs: trapPrograms(c)}, nil
}

func (b *trapBench) close() {}

func (b *trapBench) measure(m *meter) {
	m.serial("trap.round", func(o opCtx) error {
		order := rand.New(rand.NewSource(b.c.seed*7919 + int64(o.trace))).Perm(len(b.progs))
		for _, i := range order {
			p := b.progs[i]
			var res *fpspy.Result
			if err := o.span("fpspy.run", func(o opCtx) (err error) {
				res, err = fpspy.Run(p.prog, fpspy.Options{Config: trapConfig(), Obs: o.om})
				return err
			}); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			var recs []fpspy.Record
			if err := o.span("trace.decode", func(opCtx) (err error) {
				recs, err = res.Records()
				return err
			}); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			if err := o.span("bench.check", func(opCtx) error { return b.check(p.name, res, recs) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// check pins each guest's retired steps, record count, observed event
// set and exit status.
func (b *trapBench) check(name string, res *fpspy.Result, recs []fpspy.Record) error {
	if res.TraceErr != nil {
		return fmt.Errorf("%s: trace flush: %w", name, res.TraceErr)
	}
	var events fpspy.Flags
	for i := range recs {
		events |= recs[i].Raised
	}
	for _, a := range res.Aggregates() {
		events |= a.Flags
	}
	return firstErr(
		pins.check(b.c, name+".steps", res.Steps),
		pins.check(b.c, name+".records", uint64(len(recs))),
		pins.check(b.c, name+".events", uint64(events)),
		pins.check(b.c, name+".exit", uint64(res.ExitCode)),
	)
}

func (b *trapBench) layers(m *meter, _ *legResult, out map[string]float64) {
	obsLayers(m.obsDelta, float64(m.tracedOps()), out)
	noStudyLayers(out)
}
