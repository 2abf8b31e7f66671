package kernel

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

func spawnAndRun(t *testing.T, prog *isa.Program, env map[string]string, maxSteps uint64) (*Kernel, *Process) {
	t.Helper()
	k := New()
	p, err := k.Spawn(prog, 1<<20, env)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(maxSteps)
	if !p.Exited {
		t.Fatalf("process did not exit")
	}
	return k, p
}

func TestProcessRunsToExit(t *testing.T) {
	b := isa.NewBuilder("exit")
	b.Movi(isa.R1, 0)
	b.CallC("exit")
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 1000)
	if p.ExitCode != 0 {
		t.Errorf("exit code %d", p.ExitCode)
	}
}

func TestHaltExitsTask(t *testing.T) {
	b := isa.NewBuilder("halt")
	b.Movi(isa.R2, 9)
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 1000)
	if p.Tasks[0].State != TaskExited {
		t.Error("task not exited")
	}
}

func TestPthreadCreateRunsThread(t *testing.T) {
	// Main thread creates a worker that stores 42 at address 128 and
	// exits; main spins until it sees the store.
	b := isa.NewBuilder("threads")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 7) // arg
	b.CallC("pthread_create")
	wait := b.Label("wait")
	b.Bind(wait)
	b.Movi(isa.R3, 128)
	b.Ld(isa.R4, isa.R3, 0)
	b.Movi(isa.R5, 42)
	b.Bne(isa.R4, isa.R5, wait)
	b.Hlt()
	b.Bind(worker)
	// R1 = arg (7); store 42 at 128.
	b.Movi(isa.R3, 128)
	b.Movi(isa.R4, 42)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("pthread_exit")
	_, p := spawnAndRun(t, b.Build(), nil, 100000)
	if len(p.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(p.Tasks))
	}
	if p.Tasks[1].M.CPU.R[isa.R1] != 7 {
		t.Errorf("worker arg = %d, want 7", p.Tasks[1].M.CPU.R[isa.R1])
	}
}

func TestForkDuplicatesMemory(t *testing.T) {
	// Parent writes 1 at addr 64 before fork; child writes 2 after; the
	// parent's copy must stay 1. Parent gets child pid, child gets 0.
	b := isa.NewBuilder("fork")
	b.Movi(isa.R3, 64)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("fork")
	child := b.Label("child")
	b.Beq(isa.R1, isa.R0, child)
	b.Hlt() // parent
	b.Bind(child)
	b.Movi(isa.R4, 2)
	b.St(isa.R3, 0, isa.R4)
	b.Hlt()
	k := New()
	p, err := k.Spawn(b.Build(), 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(100000)
	if len(k.Procs) != 2 {
		t.Fatalf("procs = %d", len(k.Procs))
	}
	var childProc *Process
	for pid, pr := range k.Procs {
		if pid != p.PID {
			childProc = pr
		}
	}
	if childProc == nil || !childProc.Exited || !p.Exited {
		t.Fatal("both processes should exit")
	}
	pv := uint64(memByte(p, 64))
	cv := uint64(memByte(childProc, 64))
	if pv != 1 || cv != 2 {
		t.Errorf("parent mem 64 = %d (want 1), child = %d (want 2)", pv, cv)
	}
}

func TestGuestSignalHandlerAndSigreturn(t *testing.T) {
	// The guest installs a SIGFPE handler and raises the signal
	// synchronously with feraiseexcept (on an unmasked condition). The
	// handler records its run in memory — registers do not survive
	// sigreturn, which restores the full saved frame — and execution
	// resumes after the raising call.
	b := isa.NewBuilder("guestsig")
	handler := b.Label("handler")
	b.Movi(isa.R1, int64(SIGFPE))
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(softfloat.FlagDivideByZero))
	b.CallC("feenableexcept")
	b.Movi(isa.R1, int64(softfloat.FlagDivideByZero))
	b.CallC("feraiseexcept")
	b.Movi(isa.R9, 77) // proves resumption
	b.Hlt()
	b.Bind(handler)
	b.Movi(isa.R3, 512)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("rt_sigreturn")
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	cpu := &p.Tasks[0].M.CPU
	if cpu.R[isa.R9] != 77 {
		t.Error("execution did not resume after guest handler")
	}
	if memByte(p, 512) != 1 {
		t.Error("guest handler did not run")
	}
}

// TestSignalNumberOutsideTable: signal() with a number outside the
// disposition table installs nothing, so a second call reads back
// SIG_DFL, while an in-range number reads back what the first call
// installed.
func TestSignalNumberOutsideTable(t *testing.T) {
	b := isa.NewBuilder("badsig")
	for i, sig := range []int64{int64(SIGFPE), 64, -1} {
		b.Movi(isa.R1, sig)
		b.Movi(isa.R2, 1) // SIG_IGN
		b.CallC("signal")
		b.Movi(isa.R1, sig)
		b.Movi(isa.R2, 0) // SIG_DFL
		b.CallC("signal")
		b.Mov(isa.R9+i, isa.R1)
	}
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	if p.ExitCode != 0 {
		t.Fatalf("exit code = %d", p.ExitCode)
	}
	r := &p.Tasks[0].M.CPU.R
	if r[isa.R9] != 1 || r[isa.R10] != 0 || r[isa.R11] != 0 {
		t.Errorf("second signal() returned %d, %d, %d; want 1 (SIGFPE), 0, 0", r[isa.R9], r[isa.R10], r[isa.R11])
	}
}

func TestDefaultSIGFPEKillsProcess(t *testing.T) {
	b := isa.NewBuilder("die")
	b.Movi(isa.R1, int64(softfloat.FlagDivideByZero))
	b.CallC("feenableexcept")
	b.Movi(isa.R4, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R4)
	b.Movqx(isa.X1, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X0, isa.X0, isa.X1)
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	if p.ExitCode != 128+int(SIGFPE) {
		t.Errorf("exit code = %d, want %d", p.ExitCode, 128+int(SIGFPE))
	}
}

func TestHostHandlerMutatesContext(t *testing.T) {
	// A host handler (the way FPSpy registers handlers) masks the
	// exception and records the faulting address.
	b := isa.NewBuilder("hostsig")
	b.Movi(isa.R4, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R4)
	b.Movqx(isa.X1, isa.R0)
	div := b.Len()
	b.FP2(isa.OpDIVSD, isa.X0, isa.X0, isa.X1)
	b.Hlt()
	prog := b.Build()
	k := New()
	p, err := k.Spawn(prog, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var faultAddr uint64
	var raised softfloat.Flags
	k.SetSigAction(p, SIGFPE, &SigAction{Host: func(k *Kernel, task *Task, info *SigInfo, mc *MContext) {
		faultAddr = info.Addr
		raised = info.Raised
		mc.CPU.MXCSR.Mask(info.Raised)
	}})
	p.Tasks[0].M.CPU.MXCSR.Unmask(softfloat.FlagDivideByZero)
	k.Run(10000)
	if faultAddr != prog.AddrOf(div) {
		t.Errorf("fault addr %#x, want %#x", faultAddr, prog.AddrOf(div))
	}
	if raised&softfloat.FlagDivideByZero == 0 {
		t.Errorf("raised = %v", raised)
	}
	if !p.Exited {
		t.Error("process did not finish after handler masked the exception")
	}
}

func TestVirtualTimerDeliversSIGVTALRM(t *testing.T) {
	b := isa.NewBuilder("timer")
	handler := b.Label("handler")
	b.Movi(isa.R1, int64(SIGVTALRM))
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(TimerVirtual))
	b.Movi(isa.R2, 50) // 50 instructions
	b.CallC("setitimer")
	b.Movi(isa.R7, 512) // flag address
	loop := b.Label("loop")
	b.Bind(loop)
	b.Ld(isa.R6, isa.R7, 0)
	b.Beq(isa.R6, isa.R0, loop) // spin until handler stores the flag
	b.Hlt()
	b.Bind(handler)
	b.Movi(isa.R3, 512)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("rt_sigreturn")
	_, p := spawnAndRun(t, b.Build(), nil, 100000)
	if memByte(p, 512) != 1 {
		t.Error("timer handler never ran")
	}
}

func TestFeEnvRoundTrip(t *testing.T) {
	// fegetenv/fesetenv via guest memory: set RD mode, save env, set RN,
	// restore, check RD is back (observable through fegetround).
	b := isa.NewBuilder("fenv")
	b.Movi(isa.R1, int64(softfloat.RoundDown))
	b.CallC("fesetround")
	b.Movi(isa.R1, 256) // env pointer
	b.CallC("fegetenv")
	b.Movi(isa.R1, int64(softfloat.RoundNearestEven))
	b.CallC("fesetround")
	b.CallC("fegetround")
	b.Mov(isa.R10, isa.R1) // should be RN
	b.Movi(isa.R1, 256)
	b.CallC("fesetenv")
	b.CallC("fegetround")
	b.Mov(isa.R11, isa.R1) // should be RD
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	cpu := &p.Tasks[0].M.CPU
	if got := softfloat.RoundingMode(cpu.R[isa.R10]); got != softfloat.RoundNearestEven {
		t.Errorf("mid mode = %v", got)
	}
	if got := softfloat.RoundingMode(cpu.R[isa.R11]); got != softfloat.RoundDown {
		t.Errorf("restored mode = %v", got)
	}
}

func TestFeTestAndClearExcept(t *testing.T) {
	b := isa.NewBuilder("fetest")
	// 1/3 raises PE; fetestexcept sees it; feclearexcept clears it.
	b.Movi(isa.R4, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R4)
	b.Movi(isa.R4, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R4)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Movi(isa.R1, 0x3F)
	b.CallC("fetestexcept")
	b.Mov(isa.R10, isa.R1)
	b.Movi(isa.R1, 0x3F)
	b.CallC("feclearexcept")
	b.Movi(isa.R1, 0x3F)
	b.CallC("fetestexcept")
	b.Mov(isa.R11, isa.R1)
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	cpu := &p.Tasks[0].M.CPU
	if softfloat.Flags(cpu.R[isa.R10])&softfloat.FlagInexact == 0 {
		t.Errorf("fetestexcept = %v, want PE", softfloat.Flags(cpu.R[isa.R10]))
	}
	if cpu.R[isa.R11] != 0 {
		t.Errorf("flags after feclearexcept = %v", softfloat.Flags(cpu.R[isa.R11]))
	}
}

func TestAccountingSeparatesUserAndSys(t *testing.T) {
	b := isa.NewBuilder("acct")
	for i := 0; i < 100; i++ {
		b.Nop()
	}
	b.CallC("getpid")
	b.Hlt()
	_, p := spawnAndRun(t, b.Build(), nil, 10000)
	task := p.Tasks[0]
	if task.UserCycles < 100 {
		t.Errorf("user cycles = %d", task.UserCycles)
	}
	if task.SysCycles == 0 {
		t.Error("sys cycles = 0, syscall not accounted")
	}
}

func TestPthreadJoinBlocksUntilExit(t *testing.T) {
	// Main creates a worker that counts to 5000, joins it, then reads
	// the worker's completion flag — which must be set by join time.
	b := isa.NewBuilder("join")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Mov(isa.R10, isa.R1) // worker tid
	b.Mov(isa.R1, isa.R10)
	b.CallC("pthread_join")
	b.Movi(isa.R3, 256)
	b.Ld(isa.R4, isa.R3, 0) // flag must be 1 after join
	b.Hlt()
	b.Bind(worker)
	b.Movi(isa.R5, 0)
	b.Movi(isa.R6, 5000)
	spin := b.Label("spin")
	b.Bind(spin)
	b.Addi(isa.R5, isa.R5, 1)
	b.Blt(isa.R5, isa.R6, spin)
	b.Movi(isa.R3, 256)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("pthread_exit")
	_, p := spawnAndRun(t, b.Build(), nil, 1000000)
	if p.Tasks[0].M.CPU.R[isa.R4] != 1 {
		t.Error("join returned before worker finished")
	}
}

func TestPthreadJoinAlreadyExited(t *testing.T) {
	b := isa.NewBuilder("joindone")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Mov(isa.R10, isa.R1)
	// Spin long enough for the worker to finish first.
	b.Movi(isa.R5, 0)
	b.Movi(isa.R6, 20000)
	spin := b.Label("spin")
	b.Bind(spin)
	b.Addi(isa.R5, isa.R5, 1)
	b.Blt(isa.R5, isa.R6, spin)
	b.Mov(isa.R1, isa.R10)
	b.CallC("pthread_join") // target already exited: no block
	b.Movi(isa.R9, 77)
	b.Hlt()
	b.Bind(worker)
	b.CallC("pthread_exit")
	_, p := spawnAndRun(t, b.Build(), nil, 1000000)
	if p.Tasks[0].M.CPU.R[isa.R9] != 77 {
		t.Error("join on exited thread blocked forever")
	}
}

func TestKillAndStrings(t *testing.T) {
	b := isa.NewBuilder("kill")
	spin := b.Label("spin")
	b.Bind(spin)
	b.Nop()
	b.Jmp(spin)
	k := New()
	p, err := k.Spawn(b.Build(), 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the spinner from a timer-driven host hook.
	k.SetSigAction(p, SIGVTALRM, &SigAction{Host: func(k *Kernel, task *Task, info *SigInfo, mc *MContext) {
		k.Kill(task)
	}})
	p.Tasks[0].SetTimer(TimerVirtual, 100)
	if !p.Tasks[0].TimerArmed(TimerVirtual) {
		t.Error("timer not armed")
	}
	k.Run(1_000_000)
	if p.Tasks[0].State != TaskKilled {
		t.Errorf("state = %v", p.Tasks[0].State)
	}
	if p.String() == "" || SIGFPE.String() != "SIGFPE" || SIGTRAP.String() != "SIGTRAP" {
		t.Error("string methods broken")
	}
	if !(&SigAction{}).Default() {
		t.Error("zero action should be default")
	}
	if ids := p.TaskIDs(); len(ids) != 1 {
		t.Errorf("task ids = %v", ids)
	}
	if !fatalIfIgnored(SIGFPE) || fatalIfIgnored(SIGALRM) {
		t.Error("fatalIfIgnored classification")
	}
}

// memByte reads the byte at addr of p's memory, where the test guests
// keep their small counters.
func memByte(p *Process, addr uint64) byte {
	v, _ := p.Mem.Load32(addr)
	return byte(v)
}

// TestLibcFEEnvWildPointers is the regression test for libc's
// environment accessors on guest pointers near 2^64: addr+8 wrapped, the
// bounds check passed, and the slice expression panicked the host. A
// wild pointer must leave memory untouched and the guest running.
func TestLibcFEEnvWildPointers(t *testing.T) {
	syms := []string{"fegetenv", "fesetenv", "feholdexcept", "feupdateenv", "fegetexceptflag", "fesetexceptflag"}
	ptrs := []uint64{^uint64(0), ^uint64(0) - 3, ^uint64(0) - 6, ^uint64(0) - 7, 1<<20 - 4}
	for _, sym := range syms {
		for _, ptr := range ptrs {
			b := isa.NewBuilder("wild-" + sym)
			b.Movi(isa.R1, int64(ptr))
			b.Movi(isa.R2, 0x3F)
			b.CallC(sym)
			b.Movi(isa.R9, 77)
			b.Hlt()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%#x) panicked the host: %v", sym, ptr, r)
					}
				}()
				_, p := spawnAndRun(t, b.Build(), nil, 1000)
				if task := p.Tasks[0]; task.State != TaskExited || task.M.CPU.R[isa.R9] != 77 {
					t.Errorf("%s(%#x): guest did not run to hlt (state %v)", sym, ptr, task.State)
				}
			}()
		}
	}
}
