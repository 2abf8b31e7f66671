package kernel

import (
	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
)

// mxReg converts a stored environment word back to a register value.
func mxReg(v uint64) mxcsr.Reg { return mxcsr.Reg(uint32(v)) }

// libcObject builds the base C library for a process. The symbol set is
// the one FPSpy's source-code analysis greps for (the paper's Figure 8):
// process and thread management, signal hooking, and the fe* floating
// point environment family.
func libcObject(p *Process) *Object {
	o := &Object{Name: "libc.so", Syms: map[string]Symbol{}}
	s := o.Syms

	arg := func(t *Task, n int) uint64 { return t.M.CPU.R[n] }
	ret := func(t *Task, v uint64) { t.M.CPU.R[isa.R1] = v }

	// --- process and thread management ---

	s["getpid"] = func(k *Kernel, t *Task) { ret(t, uint64(t.Proc.PID)) }
	s["gettid"] = func(k *Kernel, t *Task) { ret(t, uint64(t.TID)) }

	s["exit"] = func(k *Kernel, t *Task) {
		k.ExitProcess(t.Proc, int(arg(t, 1)))
	}

	s["fork"] = func(k *Kernel, t *Task) {
		child := k.Fork(t)
		k.runForkHooks(t, child)
	}

	// clone(fn, arg): thread-flavored clone, as the studied applications
	// use it (CLONE_VM et al.).
	s["clone"] = func(k *Kernel, t *Task) {
		nt := k.SpawnThread(t.Proc, arg(t, 1), arg(t, 2))
		ret(t, uint64(nt.TID))
	}

	// pthread_create(fn, arg) -> tid
	s["pthread_create"] = func(k *Kernel, t *Task) {
		nt := k.SpawnThread(t.Proc, arg(t, 1), arg(t, 2))
		ret(t, uint64(nt.TID))
	}

	s["pthread_exit"] = func(k *Kernel, t *Task) {
		k.ExitTask(t, TaskExited)
	}

	// pthread_join(tid): block until the target thread exits.
	s["pthread_join"] = func(k *Kernel, t *Task) {
		k.JoinTask(t, int(arg(t, 1)))
		ret(t, 0)
	}

	// --- signal hooking ---

	// signal(sig, handler): handler 0 = SIG_DFL, 1 = SIG_IGN, else a
	// guest address. Returns the previous handler encoding.
	s["signal"] = func(k *Kernel, t *Task) {
		sig := Signal(arg(t, 1))
		h := arg(t, 2)
		act := decodeGuestAction(h)
		old := k.SetSigAction(t.Proc, sig, act)
		ret(t, encodeGuestAction(old))
	}

	// sigaction(sig, handler) with the same simplified encoding.
	s["sigaction"] = func(k *Kernel, t *Task) {
		sig := Signal(arg(t, 1))
		h := arg(t, 2)
		act := decodeGuestAction(h)
		old := k.SetSigAction(t.Proc, sig, act)
		ret(t, encodeGuestAction(old))
	}

	s["rt_sigreturn"] = func(k *Kernel, t *Task) {
		k.sigreturn(t)
	}

	// setitimer(kind, value): one-shot per-task timer.
	s["setitimer"] = func(k *Kernel, t *Task) {
		t.SetTimer(TimerKind(arg(t, 1)), arg(t, 2))
		ret(t, 0)
	}

	// --- floating point environment control (fe*) ---

	s["feenableexcept"] = func(k *Kernel, t *Task) {
		old := ^t.M.CPU.MXCSR.Masks() & softfloat.Flags(0x3F)
		t.M.CPU.MXCSR.Unmask(softfloat.Flags(arg(t, 1)))
		ret(t, uint64(old))
	}
	s["fedisableexcept"] = func(k *Kernel, t *Task) {
		old := ^t.M.CPU.MXCSR.Masks() & softfloat.Flags(0x3F)
		t.M.CPU.MXCSR.Mask(softfloat.Flags(arg(t, 1)))
		ret(t, uint64(old))
	}
	s["fegetexcept"] = func(k *Kernel, t *Task) {
		ret(t, uint64(^t.M.CPU.MXCSR.Masks()&softfloat.Flags(0x3F)))
	}
	s["feclearexcept"] = func(k *Kernel, t *Task) {
		cur := t.M.CPU.MXCSR.Flags()
		t.M.CPU.MXCSR.ClearFlags()
		t.M.CPU.MXCSR.SetFlags(cur &^ softfloat.Flags(arg(t, 1)))
		ret(t, 0)
	}
	s["fetestexcept"] = func(k *Kernel, t *Task) {
		ret(t, uint64(t.M.CPU.MXCSR.Flags()&softfloat.Flags(arg(t, 1))))
	}
	s["fegetexceptflag"] = func(k *Kernel, t *Task) {
		// fegetexceptflag(ptr, mask): store flags&mask at ptr.
		ptr := arg(t, 1)
		mask := softfloat.Flags(arg(t, 2))
		t.M.Mem.Store64(ptr, uint64(t.M.CPU.MXCSR.Flags()&mask))
		ret(t, 0)
	}
	s["fesetexceptflag"] = func(k *Kernel, t *Task) {
		ptr := arg(t, 1)
		mask := softfloat.Flags(arg(t, 2))
		v, _ := t.M.Mem.Load64(ptr)
		cur := t.M.CPU.MXCSR.Flags()
		t.M.CPU.MXCSR.ClearFlags()
		t.M.CPU.MXCSR.SetFlags((cur &^ mask) | (softfloat.Flags(v) & mask))
		ret(t, 0)
	}
	s["feraiseexcept"] = func(k *Kernel, t *Task) {
		raised := softfloat.Flags(arg(t, 1))
		t.M.CPU.MXCSR.SetFlags(raised)
		if un := t.M.CPU.MXCSR.Unmasked(raised); un != 0 {
			k.deliverSignal(t, SIGFPE, &SigInfo{
				Signo: SIGFPE, Addr: t.M.CPU.RIP, Raised: raised, Unmasked: un,
			})
		}
		ret(t, 0)
	}
	s["fegetround"] = func(k *Kernel, t *Task) {
		ret(t, uint64(t.M.CPU.MXCSR.RC()))
	}
	s["fesetround"] = func(k *Kernel, t *Task) {
		t.M.CPU.MXCSR.SetRC(softfloat.RoundingMode(arg(t, 1)))
		ret(t, 0)
	}
	s["fegetenv"] = func(k *Kernel, t *Task) {
		t.M.Mem.Store64(arg(t, 1), uint64(t.M.CPU.MXCSR))
		ret(t, 0)
	}
	s["fesetenv"] = func(k *Kernel, t *Task) {
		ptr := arg(t, 1)
		if ptr == 0 {
			// FE_DFL_ENV
			t.M.CPU.MXCSR = mxcsr.Default
		} else if v, ok := t.M.Mem.Load64(ptr); ok {
			t.M.CPU.MXCSR = mxReg(v)
		}
		ret(t, 0)
	}
	s["feholdexcept"] = func(k *Kernel, t *Task) {
		t.M.Mem.Store64(arg(t, 1), uint64(t.M.CPU.MXCSR))
		t.M.CPU.MXCSR.ClearFlags()
		t.M.CPU.MXCSR.Mask(softfloat.Flags(0x3F))
		ret(t, 0)
	}
	s["feupdateenv"] = func(k *Kernel, t *Task) {
		raised := t.M.CPU.MXCSR.Flags()
		if v, ok := t.M.Mem.Load64(arg(t, 1)); ok {
			t.M.CPU.MXCSR = mxReg(v)
		}
		t.M.CPU.MXCSR.SetFlags(raised)
		if un := t.M.CPU.MXCSR.Unmasked(raised); un != 0 {
			k.deliverSignal(t, SIGFPE, &SigInfo{
				Signo: SIGFPE, Addr: t.M.CPU.RIP, Raised: raised, Unmasked: un,
			})
		}
		ret(t, 0)
	}

	return o
}

func decodeGuestAction(h uint64) *SigAction {
	switch h {
	case 0:
		return nil // SIG_DFL
	case 1:
		return &SigAction{Ignore: true}
	default:
		return &SigAction{Guest: h}
	}
}

func encodeGuestAction(a *SigAction) uint64 {
	switch {
	case a == nil:
		return 0
	case a.Ignore:
		return 1
	default:
		return a.Guest
	}
}
