package workload_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/workload"
)

func probeSpecs(t *testing.T) []workload.ProbeSpec {
	t.Helper()
	var specs []workload.ProbeSpec
	for _, kind := range workload.ProbeKinds() {
		specs = append(specs,
			workload.DefaultProbeSpec(kind, workload.SizeSmall),
			workload.DefaultProbeSpec(kind, workload.SizeLarge))
	}
	return specs
}

// TestProbeMemoryChannel runs every probe bare (no spy) and checks the
// guest's out[] array — the per-trial final sums — against the emitted
// model tree's prediction f(i,j) = n - |leaves(LCA(i,j))|. This
// validates the FPRev input construction and the kernel emission
// independently of any tracing.
func TestProbeMemoryChannel(t *testing.T) {
	for _, spec := range probeSpecs(t) {
		spec := spec
		t.Run(string(spec.Kind)+"/n="+itoa(spec.N), func(t *testing.T) {
			t.Parallel()
			probe, err := workload.BuildProbe(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fpspy.Run(probe.Prog, fpspy.Options{NoSpy: true})
			if err != nil {
				t.Fatal(err)
			}
			out, err := workload.ProbeOut(res.Proc.Mem, probe.OutAddr, probe.Trials)
			if err != nil {
				t.Fatal(err)
			}
			for tr, pr := range analysis.ProbePairs(spec.N) {
				want := float64(spec.N - probe.Emitted.LCASize(pr[0], pr[1]))
				if out[tr] != want {
					t.Fatalf("trial (%d,%d): guest sum = %v, model predicts %v", pr[0], pr[1], out[tr], want)
				}
			}
		})
	}
}

// TestProbeTraceRecoversEmittedTree runs every probe under the spy in
// unsampled individual mode and requires the tree recovered from the
// trace to equal the emitted tree exactly — the end-to-end contract the
// conformance suite is built on. For every kind except the negative
// control the emitted tree is also the documented Expected tree.
func TestProbeTraceRecoversEmittedTree(t *testing.T) {
	for _, spec := range probeSpecs(t) {
		spec := spec
		t.Run(string(spec.Kind)+"/n="+itoa(spec.N), func(t *testing.T) {
			t.Parallel()
			probe, err := workload.BuildProbe(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fpspy.Run(probe.Prog, fpspy.Options{
				Config: fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents},
			})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := analysis.RecoverProbeTree(res.Store.AllRecords())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tree.Canonical(), probe.Emitted.Canonical(); got != want {
				t.Fatalf("recovered tree %s, emitted %s", got, want)
			}
			honest := spec.Kind != workload.ProbeBrokenReassoc
			if match := tree.Fingerprint() == probe.Expected.Fingerprint(); match != honest {
				t.Fatalf("fingerprint match = %v for kind %s (want %v)", match, spec.Kind, honest)
			}
		})
	}
}

// TestProbeRegistry checks the probe suite is registered: seven kinds,
// buildable at both sizes, under the probe suite tag.
func TestProbeRegistry(t *testing.T) {
	probes := workload.Probes()
	if len(probes) != len(workload.ProbeKinds()) {
		t.Fatalf("registry has %d probes, want %d", len(probes), len(workload.ProbeKinds()))
	}
	for _, w := range probes {
		for _, size := range []workload.Size{workload.SizeSmall, workload.SizeLarge} {
			if p := w.Build(size); p == nil || len(p.Insts) == 0 {
				t.Fatalf("%s: empty build", w.Meta.Name)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
