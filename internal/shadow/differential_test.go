package shadow_test

import (
	"reflect"
	"testing"

	fpspy "repro"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/shadow"
	"repro/internal/study"
	"repro/internal/workload"
)

// guest is one program the channel differential shadows.
type guest struct {
	name string
	prog *isa.Program
	cfg  fpspy.Config
	app  bool
}

// differentialGuests are the seven applications at SizeSmall and every
// chaos family at seeds 1–2.
func differentialGuests(t *testing.T) []guest {
	var gs []guest
	for _, w := range workload.Apps() {
		gs = append(gs, guest{name: w.Meta.Name, prog: w.Build(workload.SizeSmall), cfg: study.ShadowConfig(0), app: true})
	}
	for _, f := range chaos.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			sc := chaos.Generate(f, seed)
			gs = append(gs, guest{name: sc.Name, prog: sc.Prog, cfg: sc.Config})
		}
	}
	if len(gs) < 7+2*8 {
		t.Fatalf("only %d guests", len(gs))
	}
	return gs
}

// shadowRun runs g at prec and returns the channels it attached, forced
// onto the big.Float path when bigFloat is set.
func shadowRun(t *testing.T, g guest, prec uint64, bigFloat bool) []*shadow.Channel {
	t.Helper()
	chans, stop := shadow.CaptureChannels(bigFloat)
	defer stop()
	cfg := g.cfg
	cfg.ShadowPrec = prec
	if _, err := fpspy.Run(g.prog, fpspy.Options{Config: cfg}); err != nil {
		t.Fatalf("%s at %d bits: %v", g.name, prec, err)
	}
	return *chans
}

// TestChannelDifferential: a channel on the fixed-width evaluator
// reports exactly what the same channel forced onto big.Float reports
// — every site row and every stat but the fallback count, bit for bit.
// On the seven applications, fallbacks stay under 1% of shadowed lanes.
func TestChannelDifferential(t *testing.T) {
	guests := differentialGuests(t)
	for _, prec := range []uint64{24, 53, 113} {
		var ops, fallbacks uint64
		for _, g := range guests {
			fixed, ref := shadowRun(t, g, prec, false), shadowRun(t, g, prec, true)
			if len(fixed) != len(ref) {
				t.Fatalf("%s at %d bits: %d channels, big.Float run %d", g.name, prec, len(fixed), len(ref))
			}
			for i := range fixed {
				fs, rs := fixed[i].Stats(), ref[i].Stats()
				if rs.Fallbacks != 0 {
					t.Fatalf("%s: forced big.Float channel counted %d fallbacks", g.name, rs.Fallbacks)
				}
				if g.app {
					ops += fs.Ops + fs.NonFinite
					fallbacks += fs.Fallbacks
				}
				fs.Fallbacks = 0
				if fs != rs {
					t.Errorf("%s at %d bits, channel %d: stats %+v, big.Float %+v", g.name, prec, i, fs, rs)
				}
				if fsites, rsites := fixed[i].Sites(), ref[i].Sites(); !reflect.DeepEqual(fsites, rsites) {
					t.Errorf("%s at %d bits, channel %d: sites differ\nfixed %+v\nbig   %+v", g.name, prec, i, fsites, rsites)
				}
			}
		}
		if ops == 0 {
			t.Fatalf("%d bits: the applications shadowed nothing", prec)
		}
		t.Logf("%d bits: %d of %d application lanes fell back (%.4f%%)", prec, fallbacks, ops, 100*float64(fallbacks)/float64(ops))
		if fallbacks*100 >= ops {
			t.Errorf("%d bits: %d of %d application lanes fell back, want under 1%%", prec, fallbacks, ops)
		}
	}
}
