package chaos

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

const (
	memBytes = 2 << 20
	maxSteps = 5_000_000
)

// Observation is everything the oracle compares of one finished run.
type Observation struct {
	// Procs is every process's guest state, by PID.
	Procs []Proc
	// Steps and the cycle counts are the run's fpspy.Result fields.
	Steps                             uint64
	UserCycles, SysCycles, WallCycles uint64
	// Records, Aggregates and Events are what the spy stored: the
	// trace, the aggregate records and the full monitor log.
	Records    []trace.Record
	Aggregates []trace.Aggregate
	Events     []trace.MonitorEvent
}

// Proc is one process at exit: its exit code, its memory (hashed by
// memSum) and its tasks, by TID.
type Proc struct {
	PID, ExitCode int
	Mem           uint64
	Tasks         []Task
}

// Task is one task's architectural state at exit. MXCSR and TF are
// left out: the spy owns them while attached, and transparency is about
// results and control flow, not the exception-control plumbing itself.
type Task struct {
	TID          int
	RIP, Retired uint64
	R            [isa.NumIntRegs]uint64
	X            [isa.NumVecRegs][isa.VecWords]uint64
	K            [isa.NumMaskRegs]uint64
}

// Check is one transparency claim: a reference run and a run that
// differs from it in one respect must be indistinguishable, except in
// what the check exempts.
type Check struct {
	// Name labels the check and the legs it alters.
	Name string
	// Alter turns a leg's options into the other leg's.
	Alter func(*fpspy.Options)
	// Exempt clears from an observation what the check does not
	// compare; nil exempts nothing. It gets a copy, whose slices it
	// must not write through.
	Exempt func(*Observation)
}

var (
	// Engine compares the default superblock engine with the precise
	// single-step reference. It exempts nothing.
	Engine = Check{Name: "engine", Alter: func(o *fpspy.Options) { o.NoFastPath = true }}
	// Spy compares a run under FPSpy with the run without it. The spy
	// adds faulting executions (Steps), handler cycles, records,
	// aggregates and monitor events by design, so only guest state is
	// compared.
	Spy = Check{
		Name:   "spy",
		Alter:  func(o *fpspy.Options) { o.NoSpy = true },
		Exempt: func(o *Observation) { *o = Observation{Procs: o.Procs} },
	}
)

// Shadow compares a run without the shadow-precision channel (the
// reference's ShadowPrec is 0) with one shadowing at prec bits. It
// exempts nothing: the channel observes and never perturbs.
func Shadow(prec uint64) Check {
	return Check{Name: fmt.Sprintf("shadow%d", prec), Alter: func(o *fpspy.Options) { o.Config.ShadowPrec = prec }}
}

// TrapSet compares a spy trapping on every condition (the reference's
// ExceptList is AllEvents) with one trapping on narrowed only. When
// narrowed holds every condition the program raises, the two differ in
// nothing but the mask bits of each record's MXCSR, which are the trap
// set itself.
func TrapSet(narrowed softfloat.Flags) Check {
	return Check{
		Name:  "trapset",
		Alter: func(o *fpspy.Options) { o.Config.ExceptList = narrowed },
		Exempt: func(o *Observation) {
			o.Records = slices.Clone(o.Records)
			for i := range o.Records {
				o.Records[i].MXCSR &^= uint32(mxcsr.MaskBits)
			}
		},
	}
}

// Options returns what a scenario runs under: its spy configuration, a
// fresh injector drawn from its seed (an injector carries live rng
// state, so no two runs may share one) and the harness's memory and
// step bounds.
func (sc Scenario) Options() fpspy.Options {
	opts := fpspy.Options{Config: sc.Config, MemBytes: memBytes, MaxSteps: maxSteps}
	if sc.Inject != nil {
		inj := kernel.NewInject(sc.Inject.Seed)
		inj.DelayMax = sc.Inject.DelayMax
		inj.ShuffleSched = sc.Inject.Shuffle
		inj.QuantumJitter = sc.Inject.QuantumJitter
		opts.Inject = inj
	}
	return opts
}

// Verify runs prog once for every subset of checks, each leg under a
// fresh opts() with the subset's alterations applied, and compares
// every two legs that differ in one check by that check. It returns the
// legs' observations indexed by the bit set of the checks applied, so
// legs[0] is the reference run.
func Verify(prog *isa.Program, opts func() fpspy.Options, checks ...Check) ([]*Observation, error) {
	legs := make([]*Observation, 1<<len(checks))
	for set := range legs {
		o := opts()
		for i, c := range checks {
			if set>>i&1 == 1 {
				c.Alter(&o)
			}
		}
		res, err := fpspy.Run(prog, o)
		if err == nil {
			legs[set], err = Observe(res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s leg %s: %w", prog.Name, legName(checks, set), err)
		}
		for i, c := range checks {
			if ref := set &^ (1 << i); ref != set {
				if err := c.Compare(legs[ref], legs[set]); err != nil {
					return nil, fmt.Errorf("%s legs %s and %s: %w", prog.Name, legName(checks, ref), legName(checks, set), err)
				}
			}
		}
	}
	return legs, nil
}

// legName names a leg by the checks that altered it.
func legName(checks []Check, set int) string {
	var names []string
	for i, c := range checks {
		if set>>i&1 == 1 {
			names = append(names, c.Name)
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}

// Observe records what the oracle compares of a finished run. It fails
// when a process has not exited (fpspy.Run checks only the first).
func Observe(res *fpspy.Result) (*Observation, error) {
	o := &Observation{
		Steps:      res.Steps,
		UserCycles: res.UserCycles, SysCycles: res.SysCycles, WallCycles: res.WallCycles,
		Records:    res.Store.AllRecords(),
		Aggregates: res.Aggregates(),
		Events:     res.Store.MonitorEvents(),
	}
	for pid, p := range res.Kern.Procs {
		if !p.Exited {
			return nil, fmt.Errorf("pid %d did not exit", pid)
		}
		proc := Proc{PID: pid, ExitCode: p.ExitCode, Mem: memSum(p.Mem)}
		for _, t := range p.Tasks {
			cpu := &t.M.CPU
			proc.Tasks = append(proc.Tasks, Task{TID: t.TID, RIP: cpu.RIP, Retired: t.M.Retired, R: cpu.R, X: cpu.X, K: cpu.K})
		}
		slices.SortFunc(proc.Tasks, func(a, b Task) int { return cmp.Compare(a.TID, b.TID) })
		o.Procs = append(o.Procs, proc)
	}
	slices.SortFunc(o.Procs, func(a, b Proc) int { return cmp.Compare(a.PID, b.PID) })
	return o, nil
}

// Compare returns an error naming the first difference between the
// reference run a and the other run b that the check does not exempt.
func (c Check) Compare(a, b *Observation) error {
	x, y := c.view(a), c.view(b)
	if reflect.DeepEqual(x, y) {
		return nil
	}
	return fmt.Errorf("%s check: %s", c.Name, firstDiff("", reflect.ValueOf(x), reflect.ValueOf(y)))
}

// view is the part of o the check compares.
func (c Check) view(o *Observation) Observation {
	v := *o
	if c.Exempt != nil {
		c.Exempt(&v)
	}
	return v
}

// firstDiff describes the first difference between a and b, two unequal
// values of one type, by its path.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	}
	if a.Equal(b) {
		return ""
	}
	return fmt.Sprintf("%s: %#v vs %#v", path, a, b)
}

// memSum hashes a memory's contents: its size and every page holding a
// nonzero byte, with the page's address. A page that was written but
// holds only zeros reads like one never written, so it is skipped too;
// equal contents hash equal however the pages came to be allocated.
func memSum(mem *machine.Memory) uint64 {
	h := fnv.New64a()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], mem.Size())
	h.Write(word[:])
	mem.EachPage(func(addr uint64, data []byte) {
		if !slices.ContainsFunc(data, func(b byte) bool { return b != 0 }) {
			return
		}
		binary.LittleEndian.PutUint64(word[:], addr)
		h.Write(word[:])
		h.Write(data)
	})
	return h.Sum64()
}

// CheckExpectation verifies the scenario's declared degradation against
// the spy-on monitor log, going through the on-disk text round trip so
// what the test asserts is exactly what fpanalyze -log would report.
func CheckExpectation(events []trace.MonitorEvent, sc Scenario) error {
	log := trace.RenderMonitorLog(events)
	evs, err := trace.ParseMonitorLog([]byte(log))
	if err != nil {
		return fmt.Errorf("chaos %s: monitor log does not round-trip: %w", sc.Name, err)
	}
	if sc.ExpectKind == "" {
		for _, e := range evs {
			if e.Kind == trace.EventAbort || e.Kind == trace.EventDemote {
				return fmt.Errorf("chaos %s: unexpected degradation: %s", sc.Name, e)
			}
		}
		return nil
	}
	for _, e := range evs {
		if e.Kind != sc.ExpectKind {
			continue
		}
		switch sc.ExpectKind {
		case trace.EventSignalFight:
			if e.Signal == "" || e.Count == 0 {
				return fmt.Errorf("chaos %s: signal-fight event missing signal/count: %s", sc.Name, e)
			}
		default:
			if e.Reason == "" {
				return fmt.Errorf("chaos %s: %s event has empty reason: %s", sc.Name, e.Kind, e)
			}
			if e.Reason != string(sc.ExpectReason) {
				return fmt.Errorf("chaos %s: reason %q, want %q", sc.Name, e.Reason, sc.ExpectReason)
			}
		}
		return nil
	}
	return fmt.Errorf("chaos %s: no %s event in monitor log (%d events: %s)",
		sc.Name, sc.ExpectKind, len(evs), log)
}
