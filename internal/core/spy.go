package core

import (
	"math/rand"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mxcsr"
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// PreloadName is the object name FPSpy is registered under; putting it in
// LD_PRELOAD attaches FPSpy to a process.
const PreloadName = "fpspy.so"

// CyclesPerMicrosecond converts the paper's microsecond sampler settings
// to simulated cycles (the testbed's 2.1 GHz Opterons).
const CyclesPerMicrosecond = 2100

// tsPhase is the per-thread state machine phase (the paper's Figure 5).
type tsPhase uint8

const (
	awaitFPE tsPhase = iota
	awaitTrap
)

// threadState is FPSpy's monitoring context for one thread.
type threadState struct {
	task  *kernel.Task
	phase tsPhase
	// seq numbers the thread's trace records.
	seq uint64
	// faults counts SIGFPEs handled (for 1-in-N subsampling).
	faults uint64
	// recorded counts records written (for FPE_MAXCOUNT).
	recorded uint64
	// samplerOn is the temporal sampler's current phase.
	samplerOn bool
	// done is set when MaxCount is reached: capture is over and the
	// thread runs with everything masked (zero further overhead).
	done bool
	// stormCount/stormStart implement the FPE_STORM watchdog window.
	stormCount uint64
	stormStart uint64
	// protoStart is the tracer timestamp of the SIGFPE that armed the
	// two-trap protocol; the matching SIGTRAP closes the span.
	protoStart int64
	// shadow is the thread's shadow-precision channel (FPE_SHADOW); nil
	// when shadowing is off.
	shadow *shadow.Channel
	rng    *rand.Rand
	// tt is the thread's trace, fetched from the store on the first
	// record or at teardown.
	tt *threadTrace
}

// Spy is one process's FPSpy instance.
type Spy struct {
	proc    *kernel.Process
	cfg     Config
	store   *Store
	threads []*threadState
	// state is the degradation level; it only ever moves rightwards
	// (Individual -> Aggregate -> Detached).
	state DegradeState
	// reason records why state regressed from its starting level.
	reason AbortReason
	// inert is set by FPE_DISABLE or a config parse failure: FPSpy loads
	// but touches nothing.
	inert bool
	// instCost is the cost model's cycles-per-instruction, used to
	// convert the virtual (instruction-time) sampler period.
	instCost uint64
	// fights counts absorbed handler registrations per contested signal
	// (aggressive mode).
	fights map[kernel.Signal]uint64
	// saved dispositions, restored when stepping aside.
	prevFPE, prevTrap, prevTimer *kernel.SigAction
	// ConfigErr records a configuration parse failure.
	ConfigErr error

	// om and otr are the (possibly nil) observability hooks: spy-level
	// counters and the event tracer. Both are nil-safe by construction
	// and never influence monitoring decisions.
	om  *obs.SpyMetrics
	osh *obs.ShadowMetrics
	otr *obs.Tracer
}

// Factory returns the preload object factory for FPSpy, writing traces to
// store and observability data to m; pass obs.Disabled (nil) for the
// uninstrumented behavior. Register the result with
// kernel.RegisterPreload(PreloadName, ...).
func Factory(store *Store, m *obs.Metrics) kernel.ObjectFactory {
	return func(p *kernel.Process) *kernel.Object {
		s := &Spy{
			proc:   p,
			store:  store,
			fights: make(map[kernel.Signal]uint64),
			om:     m.SpyMetricsOrNil(),
			osh:    m.ShadowMetricsOrNil(),
			otr:    m.TracerOrNil(),
		}
		return s.object()
	}
}

// timerSignal is the signal the temporal sampler uses.
func (s *Spy) timerSignal() kernel.Signal {
	if s.cfg.VirtualTimer {
		return kernel.SIGVTALRM
	}
	return kernel.SIGALRM
}

func (s *Spy) timerKind() kernel.TimerKind {
	if s.cfg.VirtualTimer {
		return kernel.TimerVirtual
	}
	return kernel.TimerReal
}

func (s *Spy) temporalSampling() bool { return s.cfg.SampleOnUS > 0 }

// object assembles the preload Object: interposed symbols plus
// constructor/destructor hooks.
func (s *Spy) object() *kernel.Object {
	obj := &kernel.Object{Name: PreloadName, Syms: map[string]kernel.Symbol{}}
	obj.Constructor = s.construct
	obj.Destructor = s.destruct
	obj.ForkChild = s.forkChild

	// Process and thread management: follow forks and thread creations.
	obj.Syms["fork"] = s.passThrough("fork")
	obj.Syms["clone"] = s.wrapThreadCreate("clone")
	obj.Syms["pthread_create"] = s.wrapThreadCreate("pthread_create")
	obj.Syms["pthread_exit"] = s.passThrough("pthread_exit")

	// Signal hooking: detect the application using FPSpy's signals.
	obj.Syms["signal"] = s.wrapSignal("signal")
	obj.Syms["sigaction"] = s.wrapSignal("sigaction")

	// Floating point environment control: any use means FPSpy must get
	// out of the way (the feenableexcept-rightwards set of Figure 8).
	for _, sym := range []string{
		"feenableexcept", "fedisableexcept", "fegetexcept", "feclearexcept",
		"fegetexceptflag", "feraiseexcept", "fesetexceptflag", "fetestexcept",
		"fegetround", "fesetround", "fegetenv", "feholdexcept", "fesetenv",
		"feupdateenv",
	} {
		obj.Syms[sym] = s.wrapFE(sym)
	}
	return obj
}

// next resolves the real implementation below FPSpy in the chain.
func (s *Spy) next(sym string) kernel.Symbol {
	return s.proc.Linker.ResolveAfter(PreloadName, sym)
}

func (s *Spy) passThrough(sym string) kernel.Symbol {
	return func(k *kernel.Kernel, t *kernel.Task) {
		if real := s.next(sym); real != nil {
			real(k, t)
		}
	}
}

// construct is FPSpy's linker constructor: it runs before main() on the
// initial thread.
func (s *Spy) construct(k *kernel.Kernel, t *kernel.Task) {
	cfg, err := ParseConfig(s.proc.Env)
	if err != nil {
		s.ConfigErr = err
		s.inert = true
		return
	}
	s.cfg = cfg
	if cfg.Disable {
		s.inert = true
		return
	}
	s.instCost = k.Cost.Instruction
	if s.instCost == 0 {
		s.instCost = 1
	}
	if cfg.Mode == ModeIndividual {
		s.state = StateIndividual
		s.installHandlers(k)
	} else {
		s.state = StateAggregate
	}
	s.threadInit(k, t)
}

// installHandlers hooks SIGFPE, the single-event completion signal
// (SIGTRAP for the TF protocol, SIGILL for the breakpoint protocol) and
// the sampler timer signal, saving the previous dispositions for a
// graceful step-aside.
func (s *Spy) installHandlers(k *kernel.Kernel) {
	s.prevFPE = k.SetSigAction(s.proc, kernel.SIGFPE, &kernel.SigAction{Host: s.onSIGFPE})
	s.prevTrap = k.SetSigAction(s.proc, s.stepSignal(), &kernel.SigAction{Host: s.onSIGTRAP})
	if s.temporalSampling() {
		s.prevTimer = k.SetSigAction(s.proc, s.timerSignal(), &kernel.SigAction{Host: s.onTimer})
	}
}

// stepSignal is the signal that marks the faulting instruction's
// completed re-execution.
func (s *Spy) stepSignal() kernel.Signal {
	if s.cfg.Breakpoints {
		return kernel.SIGILL
	}
	return kernel.SIGTRAP
}

// threadInit starts monitoring a thread (the constructor for the initial
// thread; the pthread_create thunk for the rest).
func (s *Spy) threadInit(k *kernel.Kernel, t *kernel.Task) {
	if s.inert || s.state == StateDetached {
		return
	}
	ts := &threadState{task: t, samplerOn: true, rng: rand.New(rand.NewSource(int64(t.TID)*7919 + 13))}
	s.threads = append(s.threads, ts)
	t.OnExit = append(t.OnExit, s.threadTeardown)
	if s.om != nil {
		s.om.ThreadsMonitored.Inc()
		s.otr.Instant("fpspy", "thread-init", s.proc.PID, t.TID, "state", uint64(s.state))
	}

	if s.cfg.ShadowPrec > 0 {
		ts.shadow = shadow.Attach(t.M, uint(s.cfg.ShadowPrec), s.osh)
	}
	cpu := &t.M.CPU
	cpu.MXCSR.ClearFlags()
	if s.state == StateIndividual {
		cpu.MXCSR.Unmask(s.cfg.ExceptList)
		if s.temporalSampling() {
			t.SetTimer(s.timerKind(), s.period(ts, s.cfg.SampleOnUS))
		}
	}
}

// period draws the next sampler period in timer units: cycles for the
// real timer, retired instructions for the virtual timer.
func (s *Spy) period(ts *threadState, meanUS uint64) uint64 {
	us := float64(meanUS)
	if s.cfg.Poisson {
		us = ts.rng.ExpFloat64() * float64(meanUS)
		if us < 1 {
			us = 1
		}
	}
	if s.cfg.VirtualTimer {
		// Virtual time is instruction time: convert the cycle budget to
		// retired instructions through the cost model.
		ic := s.instCost
		if ic == 0 {
			ic = 1
		}
		n := uint64(us * CyclesPerMicrosecond / float64(ic))
		if n == 0 {
			n = 1
		}
		return n
	}
	return uint64(us * CyclesPerMicrosecond)
}

// threadTeardown completes a thread's trace at exit: aggregate records
// for aggregate (or demoted) spies, the individual trace otherwise,
// plus a last MXCSR integrity check — a mask-everything stomp never
// faults again, so thread exit is the first chance to notice it.
func (s *Spy) threadTeardown(k *kernel.Kernel, t *kernel.Task) {
	if s.inert {
		return
	}
	ts := s.thread(t)
	if ts != nil && ts.shadow != nil {
		// Thread exit is the attribution flush point: the channel's
		// per-site rows fold into the store. Float sums over three or
		// more threads depend on the order they fold in; reports are
		// reproducible because the simulator's thread exit order is
		// deterministic.
		s.store.mergeShadowSites(ts.shadow.Sites())
	}
	if ts != nil && s.state == StateIndividual {
		if t.M.CPU.MXCSR.Masks() != s.expectedMasks(ts) {
			s.detach(k, t, AbortMXCSRStomp, t)
		}
	}
	if s.cfg.Mode == ModeAggregate || s.state == StateAggregate {
		agg := trace.Aggregate{
			PID:          s.proc.PID,
			TID:          t.TID,
			Instructions: t.M.Retired,
			Aborted:      s.state == StateDetached,
			Reason:       string(s.reason),
		}
		if !agg.Aborted {
			agg.Flags = t.M.CPU.MXCSR.Flags()
		}
		s.store.addAggregate(agg)
		if s.cfg.Mode == ModeAggregate {
			return
		}
		// A demoted individual-mode spy falls through: records captured
		// before the demotion still need to reach the trace.
	}
	if ts != nil {
		// Every monitored thread has a trace, as every thread of the
		// real tool has a trace file, even one that recorded nothing.
		s.threadTrace(ts)
	}
}

// thread returns t's monitoring state, or nil when t is not monitored.
func (s *Spy) thread(t *kernel.Task) *threadState {
	for _, ts := range s.threads {
		if ts.task == t {
			return ts
		}
	}
	return nil
}

// threadTrace returns the thread's trace, fetching it from the store
// the first time.
func (s *Spy) threadTrace(ts *threadState) *threadTrace {
	if ts.tt == nil {
		ts.tt = s.store.thread(ThreadKey{PID: s.proc.PID, TID: ts.task.TID})
	}
	return ts.tt
}

// destruct runs after the last task exits; all per-thread teardown has
// already happened via OnExit hooks.
func (s *Spy) destruct(k *kernel.Kernel, t *kernel.Task) {}

// forkChild re-initializes FPSpy in a forked child (FPSpy's fork
// interposition: the child inherits LD_PRELOAD and the FPE_* variables,
// and its own FPSpy instance takes over).
func (s *Spy) forkChild(k *kernel.Kernel, parent, child *kernel.Task) {
	s.construct(k, child)
}

// wrapThreadCreate interposes on pthread_create/clone: the application's
// start routine is wrapped in a thunk that initializes monitoring before
// the routine runs and tears it down after.
func (s *Spy) wrapThreadCreate(sym string) kernel.Symbol {
	return func(k *kernel.Kernel, t *kernel.Task) {
		real := s.next(sym)
		if real == nil {
			return
		}
		real(k, t)
		if s.inert || s.state == StateDetached {
			return
		}
		newTID := int(t.M.CPU.R[isa.R1])
		for _, nt := range s.proc.Tasks {
			if nt.TID == newTID {
				s.threadInit(k, nt)
				break
			}
		}
	}
}

// wrapSignal interposes on signal/sigaction. If the application touches
// the signals FPSpy itself relies on while in individual mode, FPSpy gets
// out of the way — unless aggressive mode keeps it attached, in which
// case the application's request is absorbed.
func (s *Spy) wrapSignal(sym string) kernel.Symbol {
	return func(k *kernel.Kernel, t *kernel.Task) {
		sig := kernel.Signal(t.M.CPU.R[isa.R1])
		mine := sig == kernel.SIGFPE || sig == s.stepSignal() ||
			(s.temporalSampling() && sig == s.timerSignal())
		if !s.inert && s.state == StateIndividual && mine {
			if s.cfg.Aggressive {
				// Aggressive mode: keep spying; report "previous handler
				// was default" to the application, and log the fight so
				// analysis can see how hard the app contested the signal.
				s.fights[sig]++
				if s.om != nil {
					s.om.SignalFights.Inc()
					s.otr.Instant("fpspy", "signal-fight", s.proc.PID, t.TID, "signal", uint64(sig))
				}
				s.store.addEvent(trace.MonitorEvent{
					Time: t.UserCycles + t.SysCycles,
					PID:  s.proc.PID, TID: t.TID,
					Kind:   trace.EventSignalFight,
					Signal: sig.String(),
					Count:  s.fights[sig],
				})
				t.M.CPU.R[isa.R1] = 0
				return
			}
			s.stepAside(k, t, AbortSignalConflict)
		}
		if real := s.next(sym); real != nil {
			real(k, t)
		}
	}
}

// wrapFE interposes on the fe* floating point environment family. Any
// dynamic use means the application manipulates the state FPSpy depends
// on, so FPSpy gets out of the way first and then lets the call through.
func (s *Spy) wrapFE(sym string) kernel.Symbol {
	return func(k *kernel.Kernel, t *kernel.Task) {
		if !s.inert && s.state != StateDetached {
			s.stepAside(k, t, AbortFEAccess)
		}
		if real := s.next(sym); real != nil {
			real(k, t)
		}
	}
}

// stepAside gracefully untangles FPSpy: restore the saved signal
// dispositions, return every monitored thread's floating point control
// state to the masked default, disarm sampler timers, and stop touching
// anything. The application keeps running.
func (s *Spy) stepAside(k *kernel.Kernel, t *kernel.Task, reason AbortReason) {
	s.detach(k, t, reason, nil)
}

// detach is the Detached transition. stomped, when non-nil, names a
// thread whose MXCSR must be left exactly as the application set it:
// after an ldmxcsr stomp the register is entirely application state,
// and resetting it would change behavior the application asked for
// (e.g. dying on a divide it deliberately unmasked).
func (s *Spy) detach(k *kernel.Kernel, t *kernel.Task, reason AbortReason, stomped *kernel.Task) {
	if s.inert || s.state == StateDetached {
		return
	}
	from := s.state
	s.state = StateDetached
	s.reason = reason
	s.store.StepAsides++
	if s.om != nil {
		s.om.Detaches.Inc()
		s.otr.Instant("fpspy", "detach", s.proc.PID, t.TID, "from", uint64(from))
	}
	s.store.addEvent(trace.MonitorEvent{
		Time: t.UserCycles + t.SysCycles,
		PID:  s.proc.PID, TID: t.TID,
		Kind: trace.EventAbort,
		From: from.String(), To: StateDetached.String(),
		Reason: string(reason),
	})
	if from != StateIndividual {
		// Aggregate spies (original or demoted) hold no signals, timers,
		// or mask state: nothing to unwind.
		return
	}
	s.restoreHandlers(k)
	s.disarm(stomped)
}

// disarm takes FPSpy's trap machinery off every monitored thread: all
// events masked (except on stomped, see detach), no single-step, no
// instruction still stubbed by the breakpoint protocol (leaving one
// behind would kill the application later), no sampler timer.
func (s *Spy) disarm(stomped *kernel.Task) {
	for _, ts := range s.threads {
		if ts.task != stomped {
			ts.task.M.CPU.MXCSR.Mask(AllEvents)
		}
		ts.task.M.CPU.TF = false
		ts.task.M.Breakpoints = nil
		ts.task.SetTimer(s.timerKind(), 0)
	}
}

// restoreHandlers puts back the signal dispositions saved at install.
func (s *Spy) restoreHandlers(k *kernel.Kernel) {
	k.SetSigAction(s.proc, kernel.SIGFPE, s.prevFPE)
	k.SetSigAction(s.proc, s.stepSignal(), s.prevTrap)
	if s.temporalSampling() {
		k.SetSigAction(s.proc, s.timerSignal(), s.prevTimer)
	}
}

// demote is the Individual -> Aggregate transition (the trap-storm
// watchdog): release signals, timers, and mask manipulation, but keep
// reading the sticky condition codes so thread exit still yields an
// aggregate record. Sticky flags are deliberately NOT cleared — from the
// demotion onward they accumulate exactly as under an aggregate spy.
func (s *Spy) demote(k *kernel.Kernel, t *kernel.Task, reason AbortReason) {
	if s.inert || s.state != StateIndividual {
		return
	}
	s.state = StateAggregate
	s.reason = reason
	if s.om != nil {
		s.om.Demotions.Inc()
		s.otr.Instant("fpspy", "demote", s.proc.PID, t.TID, "", 0)
	}
	s.store.addEvent(trace.MonitorEvent{
		Time: t.UserCycles + t.SysCycles,
		PID:  s.proc.PID, TID: t.TID,
		Kind: trace.EventDemote,
		From: StateIndividual.String(), To: StateAggregate.String(),
		Reason: string(reason),
	})
	s.restoreHandlers(k)
	s.disarm(nil)
}

// expectedMasks is the mask set FPSpy believes it left on a monitored
// thread given the protocol phase; any other value means the application
// rewrote MXCSR behind FPSpy's back.
func (s *Spy) expectedMasks(ts *threadState) softfloat.Flags {
	if ts.done || !ts.samplerOn || ts.phase == awaitTrap {
		return AllEvents
	}
	return AllEvents &^ s.cfg.ExceptList
}

// onSIGFPE is the heart of individual mode: log the event, then arrange
// for the faulting instruction to execute exactly once (mask + TF) — the
// paper's AWAIT_FPE -> AWAIT_TRAP transition.
func (s *Spy) onSIGFPE(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := s.thread(t)
	if ts == nil || s.state != StateIndividual {
		return
	}

	// MXCSR integrity recheck: if the mask bits differ from what the
	// protocol left there, the application rewrote MXCSR directly
	// (ldmxcsr), bypassing the fe* interposition layer.
	if mc.CPU.MXCSR.Masks() != s.expectedMasks(ts) {
		if s.cfg.Aggressive {
			// Keep spying: the protocol below re-establishes FPSpy's
			// masks; just log that we had to re-assert them.
			if s.om != nil {
				s.om.Reasserts.Inc()
			}
			s.store.addEvent(trace.MonitorEvent{
				Time: t.UserCycles + t.SysCycles,
				PID:  s.proc.PID, TID: t.TID,
				Kind:   trace.EventReassert,
				Reason: string(AbortMXCSRStomp),
			})
		} else {
			// Step aside, leaving the stomping thread's MXCSR exactly as
			// the application wrote it. The faulting instruction re-runs
			// under the restored (default) disposition, so an exception
			// the application deliberately unmasked behaves as if FPSpy
			// had never been loaded.
			s.detach(k, t, AbortMXCSRStomp, t)
			return
		}
	}

	// Trap-storm watchdog: a fault rate above FPE_STORM's threshold
	// demotes to aggregate mode so monitoring overhead stays bounded.
	if s.cfg.StormFaults > 0 {
		now := t.UserCycles + t.SysCycles
		if now-ts.stormStart > s.cfg.StormCycles {
			ts.stormStart, ts.stormCount = now, 0
		}
		ts.stormCount++
		if ts.stormCount >= s.cfg.StormFaults {
			// Masking via mc takes effect on handler return, so the
			// in-flight fault re-executes masked and retires normally.
			s.demote(k, t, AbortTrapStorm)
			return
		}
	}

	ts.faults++
	s.store.Faults++
	if s.om != nil {
		s.om.Faults.Inc()
		ts.protoStart = s.otr.Now()
	}

	if !ts.done && (s.cfg.SampleEvery == 0 || ts.faults%s.cfg.SampleEvery == 0) {
		idx := t.M.Prog.IndexOf(info.Addr)
		rec := trace.Record{
			Time:   t.UserCycles + t.SysCycles,
			Rip:    info.Addr,
			Rsp:    mc.CPU.R[isa.SP],
			MXCSR:  uint32(mc.CPU.MXCSR),
			TID:    uint32(t.TID),
			Seq:    ts.seq,
			Event:  mxcsr.Priority(info.Unmasked),
			Raised: info.Raised,
		}
		if idx >= 0 {
			enc := t.M.Prog.Encode(idx)
			copy(rec.InstrWord[:], enc[:])
			rec.Opcode = uint16(t.M.Prog.Insts[idx].Op)
		}
		s.threadTrace(ts).append(&rec)
		ts.seq++
		ts.recorded++
		s.store.Recorded++
		if s.om != nil {
			s.om.Records.Inc()
		}
		if s.cfg.MaxCount > 0 && ts.recorded >= s.cfg.MaxCount {
			ts.done = true
		}
	}

	mc.CPU.MXCSR.ClearFlags()
	mc.CPU.MXCSR.Mask(AllEvents)
	if s.cfg.Breakpoints {
		// Section 3.8 alternative: stub the next instruction. The guest
		// ISA is fixed-length, so "next" is trivial — exactly the
		// simplification the paper notes for RISC targets.
		t.M.SetBreakpoint(info.Addr + isa.InstBytes)
	} else {
		mc.CPU.TF = true
	}
	ts.phase = awaitTrap
}

// onSIGTRAP completes the single-step: the faulting instruction has
// executed once; clear its condition codes and re-arm (or stay dormant
// when sampling is off or capture is done).
func (s *Spy) onSIGTRAP(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := s.thread(t)
	if ts == nil || s.state != StateIndividual {
		return
	}
	if ts.phase != awaitTrap {
		// A trap we did not arm: something else is single-stepping; the
		// conservative response is to get out of the way.
		s.stepAside(k, t, AbortForeignTrap)
		return
	}
	mc.CPU.MXCSR.ClearFlags()
	if s.cfg.Breakpoints {
		t.M.ClearBreakpoint(info.Addr)
	} else {
		mc.CPU.TF = false
	}
	if s.om != nil {
		// The SIGFPE that armed the protocol opens the span; this trap
		// closes it — one span per monitored FP event.
		dur := s.otr.Now() - ts.protoStart
		if dur < 0 {
			dur = 0
		}
		s.om.ProtocolNS.Observe(uint64(dur))
		s.otr.Complete("fpspy", "two-trap", s.proc.PID, t.TID, ts.protoStart, dur, "rip", info.Addr)
	}
	ts.phase = awaitFPE
	if !ts.done && ts.samplerOn {
		mc.CPU.MXCSR.Unmask(s.cfg.ExceptList)
	}
}

// onTimer flips the temporal sampler between its on and off phases,
// drawing the next period (exponential under Poisson sampling — the
// PASTA property makes the on-periods a valid random sample).
func (s *Spy) onTimer(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := s.thread(t)
	if ts == nil || s.state != StateIndividual {
		return
	}
	ts.samplerOn = !ts.samplerOn
	if s.om != nil {
		s.om.TimerFlips.Inc()
	}
	var mean uint64
	if ts.samplerOn {
		mean = s.cfg.SampleOnUS
	} else {
		mean = s.cfg.SampleOffUS
	}
	t.SetTimer(s.timerKind(), s.period(ts, mean))
	if ts.phase == awaitFPE && !ts.done {
		if ts.samplerOn {
			mc.CPU.MXCSR.ClearFlags()
			mc.CPU.MXCSR.Unmask(s.cfg.ExceptList)
		} else {
			mc.CPU.MXCSR.Mask(AllEvents)
		}
	}
}

// Disabled reports whether this instance has stepped aside.
func (s *Spy) Disabled() bool { return s.state == StateDetached }

// State reports the current degradation level.
func (s *Spy) State() DegradeState { return s.state }

// Reason reports why the state regressed ("" while at the starting
// level).
func (s *Spy) Reason() AbortReason { return s.reason }
