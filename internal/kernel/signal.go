package kernel

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/softfloat"
)

// Signal numbers follow Linux x86-64.
type Signal int

const (
	// SIGILL is delivered when fetch hits a stubbed (invalid) opcode —
	// the Section 3.8 breakpoint mechanism.
	SIGILL Signal = 4
	// SIGTRAP is delivered for single-step (#DB) traps.
	SIGTRAP Signal = 5
	// SIGFPE is delivered for unmasked floating point exceptions.
	SIGFPE Signal = 8
	// SIGKILL terminates unconditionally.
	SIGKILL Signal = 9
	// SIGSEGV is delivered for machine faults.
	SIGSEGV Signal = 11
	// SIGALRM is delivered by the real-time interval timer.
	SIGALRM Signal = 14
	// SIGVTALRM is delivered by the virtual-time interval timer.
	SIGVTALRM Signal = 26
)

// String names the signal.
func (s Signal) String() string {
	switch s {
	case SIGILL:
		return "SIGILL"
	case SIGTRAP:
		return "SIGTRAP"
	case SIGFPE:
		return "SIGFPE"
	case SIGKILL:
		return "SIGKILL"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGALRM:
		return "SIGALRM"
	case SIGVTALRM:
		return "SIGVTALRM"
	}
	return "SIG?"
}

// SigInfo carries the cause of a signal (a subset of siginfo_t plus the
// floating point condition detail the mcontext would expose).
type SigInfo struct {
	// Signo is the signal number.
	Signo Signal
	// Addr is the faulting instruction address for fault signals.
	Addr uint64
	// Raised is the full set of floating point conditions the faulting
	// operation produced (SIGFPE only).
	Raised softfloat.Flags
	// Unmasked is the subset that was unmasked (SIGFPE only).
	Unmasked softfloat.Flags
	// Reason is a diagnostic string for SIGSEGV.
	Reason string
}

// MContext is the machine context a host signal handler receives. Writes
// to CPU (registers, MXCSR, TF) take effect when the handler returns —
// the simulated equivalent of writing uc_mcontext before sigreturn.
type MContext struct {
	// CPU is the interrupted task's architectural state.
	CPU *machine.CPU
	// Task is the interrupted task.
	Task *Task
}

// HostHandler is a signal handler implemented in host Go code (how the
// FPSpy shim registers its SIGFPE/SIGTRAP handlers).
type HostHandler func(k *Kernel, t *Task, info *SigInfo, mc *MContext)

// SigAction is a signal disposition.
type SigAction struct {
	// Host, when non-nil, handles the signal in host code.
	Host HostHandler
	// Guest, when nonzero, is a guest-code handler address; the handler
	// must return via rt_sigreturn.
	Guest uint64
	// Ignore discards the signal (SIG_IGN).
	Ignore bool
}

// Default returns true for the default disposition (zero action).
func (a *SigAction) Default() bool {
	return a == nil || (a.Host == nil && a.Guest == 0 && !a.Ignore)
}

// SetSigAction installs a disposition for sig, returning the previous
// one. It is the syscall under both signal() and sigaction(). A signal
// number outside the disposition table installs nothing and returns
// nil.
func (k *Kernel) SetSigAction(p *Process, sig Signal, act *SigAction) *SigAction {
	if sig < 0 || int(sig) >= len(p.Handlers) {
		return nil
	}
	old := p.Handlers[sig]
	p.Handlers[sig] = act
	return old
}

// deliverSignal routes a signal to the task, honoring the process
// disposition table. info may point into per-task scratch that is
// reused by the next delivery; handlers must consume it synchronously.
func (k *Kernel) deliverSignal(t *Task, sig Signal, info *SigInfo) {
	var act *SigAction
	if sig >= 0 && int(sig) < obs.NumSignals {
		act = t.Proc.Handlers[sig]
		if k.Obs != nil {
			k.Obs.Kernel.Signals[sig].Inc()
		}
	}
	switch {
	case act != nil && act.Host != nil:
		t.UserCycles += k.Cost.SignalHandler
		if k.Obs != nil {
			// Observe what the handler does to the writable machine
			// context — the mechanism FPSpy uses to mask exceptions and
			// arm single-stepping from user level.
			beforeMXCSR, beforeTF := t.M.CPU.MXCSR, t.M.CPU.TF
			act.Host(k, t, info, t.mcontext())
			if t.M.CPU.MXCSR != beforeMXCSR {
				k.Obs.Kernel.MCtxMXCSR.Inc()
			}
			if t.M.CPU.TF != beforeTF {
				k.Obs.Kernel.MCtxTF.Inc()
			}
			return
		}
		act.Host(k, t, info, t.mcontext())
	case act != nil && act.Guest != 0:
		t.UserCycles += k.Cost.SignalHandler
		// Push the interrupted context and enter the guest handler.
		t.savedCtx = append(t.savedCtx, t.M.CPU)
		t.M.CPU.RIP = act.Guest
		t.M.CPU.TF = false
		t.M.CPU.R[1] = uint64(sig)
	case act != nil && act.Ignore && !fatalIfIgnored(sig):
		// Discard.
	default:
		// Default action: fault and alarm signals terminate the process.
		k.ExitProcess(t.Proc, 128+int(sig))
	}
}

// fatalIfIgnored reports whether ignoring the signal would livelock a
// faulting instruction (the kernel kills instead, like Linux does for
// hardware-originated faults with SIG_IGN).
func fatalIfIgnored(sig Signal) bool {
	return sig == SIGFPE || sig == SIGSEGV || sig == SIGTRAP || sig == SIGILL
}

// sigreturn pops the saved context after a guest handler finishes.
func (k *Kernel) sigreturn(t *Task) {
	n := len(t.savedCtx)
	if n == 0 {
		k.deliverSignal(t, SIGSEGV, &SigInfo{Signo: SIGSEGV, Reason: "sigreturn without frame"})
		return
	}
	t.M.CPU = t.savedCtx[n-1]
	t.savedCtx = t.savedCtx[:n-1]
}

// Kill marks the task for termination (used by validation tests).
func (k *Kernel) Kill(t *Task) { t.pendingKill = true }
