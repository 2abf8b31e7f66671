package main

// The study workload: every study artifact (Figures 6-19 and Section 6)
// regenerated in a fresh child process per operation —
// what an fpstudy user pays, including process start, workload builds,
// static analysis and a cold pass cache. The seed permutes the order
// the figures are generated in; the output must match the golden file
// byte for byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

const goldenPath = "internal/study/testdata/study.golden"

type studyBench struct {
	c config
	// Totals over the traced rounds: time simulating passes and
	// assembling figures, pass host time, and worker-pool capacity
	// (workers × prewarm time); critical is each round's longest pass
	// against its prewarm.
	prewarmNS, assembleNS, passNS, poolNS float64
	critical                              []float64
}

func newStudyBench(c config, _ *obs.Metrics) (runner, error) {
	if _, err := os.ReadFile(repoFile(goldenPath)); err != nil {
		return nil, fmt.Errorf("study golden output: %w", err)
	}
	return &studyBench{c: c}, nil
}

func studyPrograms(c config) []namedProgram {
	if c.short {
		return buildNamed([]string{"wrf", "nas-cg"}, workload.SizeSmall)
	}
	return buildNamed(appNames(), workload.SizeLarge)
}

func (b *studyBench) close() {}

// studyReport is what a study child process prints.
type studyReport struct {
	Err   string        `json:"err,omitempty"`
	Spans []Span        `json:"spans,omitempty"`
	Obs   *obs.Snapshot `json:"obs,omitempty"`
	RT    rtStats       `json:"rt"`
	// PrewarmNS and AssembleNS split the regeneration into simulating
	// every pass and assembling figures from the warm cache.
	PrewarmNS, AssembleNS int64
	Workers               int
}

func (b *studyBench) measure(m *meter) {
	m.serial("study.round", func(o opCtx) error {
		c := b.c
		c.round, c.trace = int(o.trace), o.traced()
		cmd, err := childCommand(c, "study")
		if err != nil {
			return err
		}
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("study process: %w", err)
		}
		var rep studyReport
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			return fmt.Errorf("study process report: %w", err)
		}
		if rep.Err != "" {
			return errors.New(rep.Err)
		}
		if !o.traced() {
			return nil
		}
		o.rec.adopt(rep.Spans, o.trace, o.parent)
		if rep.Obs == nil {
			return errors.New("traced study process sent no obs snapshot")
		}
		oc := countsOf(*rep.Obs)
		m.addRuntime(rep.RT, oc)
		b.prewarmNS += float64(rep.PrewarmNS)
		b.assembleNS += float64(rep.AssembleNS)
		b.passNS += oc.Sum["study.pass.host-ns"]
		b.poolNS += float64(rep.Workers) * float64(rep.PrewarmNS)
		b.critical = append(b.critical, ratio(oc.Max["study.pass.host-ns"], float64(rep.PrewarmNS)))
		return firstErr(
			pins.check(b.c, "passes", uint64(oc.C[obs.NameStudyPassesExecuted])),
			pins.check(b.c, "steps", uint64(oc.steps())),
			pins.check(b.c, "flops", uint64(oc.flops())),
			pins.check(b.c, "faults", uint64(oc.C[obs.NameSpyFaults])),
		)
	})
}

func (b *studyBench) layers(m *meter, _ *legResult, out map[string]float64) {
	obsLayers(m.obsDelta, float64(m.tracedOps()), out)
	out["study.pool_util"] = ratio(b.passNS, b.poolNS)
	out["study.assemble_frac"] = ratio(b.assembleNS, b.prewarmNS+b.assembleNS)
	out["sched.critical_frac"] = median(b.critical)
}

// studyGenerators lists the artifacts in the golden file's order; at
// smoke scale, a cheap subset.
func studyGenerators(s *study.Study, short bool) []func() (*study.Table, error) {
	if short {
		return []func() (*study.Table, error){s.Figure6, s.Figure7, s.Figure8}
	}
	return []func() (*study.Table, error){
		s.Figure6, s.Figure7, s.Figure8, s.Figure9, s.Figure10, s.Figure11,
		s.Figure12, s.Figure13, s.Figure14, s.Figure15, s.Figure16,
		s.Figure17, s.Figure18, s.Figure19, s.Section6,
	}
}

// studyRound is one study child process: regenerate, check, report.
func studyRound(c config) studyReport {
	var rep studyReport
	var rec *recorder
	var om *obs.Metrics
	if c.trace {
		rec, om = &recorder{}, obs.New(obs.Options{})
	}
	rt0 := readRuntime()
	s := study.NewWithWorkers(runtime.NumCPU())
	s.Obs = om
	gens := studyGenerators(s, c.short)
	tables := make([]*study.Table, len(gens))
	o := opCtx{rec: rec, trace: 1}
	err := o.span("study.process", func(o opCtx) error {
		golden, err := os.ReadFile(repoFile(goldenPath))
		if err != nil {
			return err
		}
		start := time.Now()
		if !c.short {
			_ = o.span("study.prewarm", func(opCtx) error {
				s.Prewarm()
				return nil
			})
		}
		rep.PrewarmNS = time.Since(start).Nanoseconds()
		start = time.Now()
		order := rand.New(rand.NewSource(c.seed*7919 + int64(c.round))).Perm(len(gens))
		err = o.span("study.assemble", func(o opCtx) error {
			for _, i := range order {
				if err := o.span("study.figure", func(opCtx) (err error) {
					tables[i], err = gens[i]()
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
		rep.AssembleNS = time.Since(start).Nanoseconds()
		if err != nil {
			return err
		}
		return o.span("bench.check", func(opCtx) error { return checkStudy(tables, string(golden), c.short) })
	})
	if err != nil {
		rep.Err = err.Error()
	}
	if c.trace {
		rep.Spans = rec.all()
		snap := om.Snapshot()
		rep.Obs = &snap
		rep.RT = readRuntime().sub(rt0)
		rep.Workers = s.Workers()
	}
	return rep
}

// checkStudy compares the regenerated artifacts with the golden study
// output: byte for byte, or at smoke scale each artifact verbatim.
func checkStudy(tables []*study.Table, golden string, short bool) error {
	var sb strings.Builder
	for _, t := range tables {
		r := t.Render() + "\n"
		if short && !strings.Contains(golden, r) {
			return fmt.Errorf("%s differs from the golden study output", t.ID)
		}
		sb.WriteString(r)
	}
	if !short && sb.String() != golden {
		return fmt.Errorf("regenerated study (%d bytes) differs from %s (%d bytes)", sb.Len(), goldenPath, len(golden))
	}
	return nil
}
