package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/trace"
)

const (
	memBytes = 2 << 20
	maxSteps = 5_000_000
)

// TaskSnap is the guest-visible architectural state of one task at the
// end of a run. MXCSR and TF are deliberately excluded: the spy owns
// them while attached, and the paper's transparency claim is about
// results and control flow, not the exception-control plumbing itself.
type TaskSnap struct {
	TID     int
	RIP     uint64
	Retired uint64
	R       [isa.NumIntRegs]uint64
	X       [isa.NumVecRegs][isa.VecWords]uint64
	K       [isa.NumMaskRegs]uint64
}

// ProcSnap is one process's observable outcome.
type ProcSnap struct {
	PID      int
	ExitCode int
	MemSum   uint64
	Tasks    []TaskSnap
}

// Snapshot is the whole-kernel observable outcome, sorted by PID.
type Snapshot []ProcSnap

// RunResult is one execution of a scenario.
type RunResult struct {
	Store *core.Store
	Snap  Snapshot
}

// runOnce executes the scenario guest under one (spy, fastpath)
// configuration and snapshots everything the guest could observe.
func runOnce(sc Scenario, spy, noFast bool) (*RunResult, error) {
	k := kernel.New()
	k.NoFastPath = noFast
	if sc.Inject != nil {
		inj := kernel.NewInject(sc.Inject.Seed)
		inj.DelayMax = sc.Inject.DelayMax
		inj.ShuffleSched = sc.Inject.Shuffle
		inj.QuantumJitter = sc.Inject.QuantumJitter
		k.Inject = inj
	}
	store := core.NewStore()
	env := map[string]string{}
	if spy {
		k.RegisterPreload(core.PreloadName, core.Factory(store))
		env = sc.Config.EnvVars()
	}
	if _, err := k.Spawn(sc.Prog, memBytes, env); err != nil {
		return nil, fmt.Errorf("chaos %s: spawn: %w", sc.Name, err)
	}
	k.Run(maxSteps)
	for pid, p := range k.Procs {
		if !p.Exited {
			return nil, fmt.Errorf("chaos %s (spy=%v nofast=%v): pid %d did not exit within %d steps",
				sc.Name, spy, noFast, pid, maxSteps)
		}
	}
	return &RunResult{Store: store, Snap: snapshot(k)}, nil
}

func snapshot(k *kernel.Kernel) Snapshot {
	var snap Snapshot
	for _, p := range k.Procs {
		ps := ProcSnap{PID: p.PID, ExitCode: p.ExitCode, MemSum: memSum(p.Mem)}
		for _, t := range p.Tasks {
			ts := TaskSnap{TID: t.TID, RIP: t.M.CPU.RIP, Retired: t.M.Retired,
				R: t.M.CPU.R, X: t.M.CPU.X, K: t.M.CPU.K}
			ps.Tasks = append(ps.Tasks, ts)
		}
		sort.Slice(ps.Tasks, func(i, j int) bool { return ps.Tasks[i].TID < ps.Tasks[j].TID })
		snap = append(snap, ps)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].PID < snap[j].PID })
	return snap
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

// diffSnapshots returns a description of the first divergence between
// two snapshots, or "" when they are bit-identical.
func diffSnapshots(labelA, labelB string, a, b Snapshot) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s has %d processes, %s has %d", labelA, len(a), labelB, len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.PID != pb.PID {
			return fmt.Sprintf("process order: %s pid %d vs %s pid %d", labelA, pa.PID, labelB, pb.PID)
		}
		if pa.ExitCode != pb.ExitCode {
			return fmt.Sprintf("pid %d: exit %d (%s) vs %d (%s)", pa.PID, pa.ExitCode, labelA, pb.ExitCode, labelB)
		}
		if pa.MemSum != pb.MemSum {
			return fmt.Sprintf("pid %d: memory differs (%s %#x vs %s %#x)", pa.PID, labelA, pa.MemSum, labelB, pb.MemSum)
		}
		if len(pa.Tasks) != len(pb.Tasks) {
			return fmt.Sprintf("pid %d: %d tasks (%s) vs %d (%s)", pa.PID, len(pa.Tasks), labelA, len(pb.Tasks), labelB)
		}
		for j := range pa.Tasks {
			ta, tb := pa.Tasks[j], pb.Tasks[j]
			switch {
			case ta.TID != tb.TID:
				return fmt.Sprintf("pid %d: task order %d vs %d", pa.PID, ta.TID, tb.TID)
			case ta.RIP != tb.RIP:
				return fmt.Sprintf("pid %d tid %d: rip %#x (%s) vs %#x (%s)", pa.PID, ta.TID, ta.RIP, labelA, tb.RIP, labelB)
			case ta.Retired != tb.Retired:
				return fmt.Sprintf("pid %d tid %d: retired %d (%s) vs %d (%s)", pa.PID, ta.TID, ta.Retired, labelA, tb.Retired, labelB)
			case ta.R != tb.R:
				return fmt.Sprintf("pid %d tid %d: integer registers differ (%s vs %s)", pa.PID, ta.TID, labelA, labelB)
			case ta.X != tb.X:
				return fmt.Sprintf("pid %d tid %d: vector registers differ (%s vs %s)", pa.PID, ta.TID, labelA, labelB)
			case ta.K != tb.K:
				return fmt.Sprintf("pid %d tid %d: mask registers differ (%s vs %s)", pa.PID, ta.TID, labelA, labelB)
			}
		}
	}
	return ""
}

// Verify runs the scenario four ways — {spy-on, spy-off} x {fast path,
// precise} — and checks that every guest-visible outcome is
// bit-identical across all four. It returns the spy-on run's store for
// expectation checks.
func Verify(sc Scenario) (*core.Store, error) {
	type cfg struct {
		label       string
		spy, noFast bool
	}
	cfgs := []cfg{
		{"spy+fast", true, false},
		{"spy+precise", true, true},
		{"bare+fast", false, false},
		{"bare+precise", false, true},
	}
	results := make([]*RunResult, len(cfgs))
	for i, c := range cfgs {
		r, err := runOnce(sc, c.spy, c.noFast)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	for i := 1; i < len(cfgs); i++ {
		if d := diffSnapshots(cfgs[0].label, cfgs[i].label, results[0].Snap, results[i].Snap); d != "" {
			return nil, fmt.Errorf("chaos %s (seed %d): transparency violated: %s", sc.Name, sc.Seed, d)
		}
	}
	// The two spy-on runs must also agree on what the monitor observed:
	// the fast path may change neither a trace record nor degradation
	// behavior. The precise engine is the reference.
	d, err := diffRecords(results[0].Store, results[1].Store)
	if err != nil {
		return nil, fmt.Errorf("chaos %s (seed %d): %w", sc.Name, sc.Seed, err)
	}
	if d != "" {
		return nil, fmt.Errorf("chaos %s (seed %d): traces differ across engines: %s", sc.Name, sc.Seed, d)
	}
	if a, b := eventSummary(results[0].Store), eventSummary(results[1].Store); a != b {
		return nil, fmt.Errorf("chaos %s (seed %d): monitor events differ across engines:\nfast:    %q\nprecise: %q",
			sc.Name, sc.Seed, a, b)
	}
	return results[0].Store, nil
}

// diffRecords compares two stores' trace records in thread order and
// describes the first difference, or returns "" when they are equal.
func diffRecords(fast, precise *core.Store) (string, error) {
	fr, err := fast.AllRecords()
	if err != nil {
		return "", err
	}
	pr, err := precise.AllRecords()
	if err != nil {
		return "", err
	}
	if len(fr) != len(pr) {
		return fmt.Sprintf("%d records fast vs %d precise", len(fr), len(pr)), nil
	}
	for i := range fr {
		if fr[i] != pr[i] {
			return fmt.Sprintf("record %d differs:\nfast:    %+v\nprecise: %+v", i, fr[i], pr[i]), nil
		}
	}
	return "", nil
}

// eventSummary flattens monitor events to their engine-independent
// parts (times are cycle counts and may shift with batching).
func eventSummary(store *core.Store) string {
	out := ""
	for _, e := range store.MonitorEvents() {
		out += fmt.Sprintf("%s/%s/%s/%s;", e.Kind, e.From, e.To, e.Reason)
	}
	return out
}

// CheckExpectation verifies the scenario's declared degradation against
// the spy-on monitor log, going through the on-disk text round trip so
// what the test asserts is exactly what fpanalyze -log would report.
func CheckExpectation(store *core.Store, sc Scenario) error {
	evs, err := trace.ParseMonitorLog([]byte(store.MonitorLog()))
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
		sc.Name, sc.ExpectKind, len(evs), store.MonitorLog())
}
