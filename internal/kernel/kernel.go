// Package kernel simulates the Linux facilities FPSpy depends on:
// processes and threads, signal dispositions and delivery with a writable
// machine context, interval timers (real and virtual), an environment, a
// dynamic linker with LD_PRELOAD-style interposition, and a cycle-level
// cost model separating user from system time.
//
// The kernel multiplexes guest tasks over virtual CPUs round-robin. Guest
// machine events (floating point faults, single-step traps, libc calls)
// are translated exactly the way Linux translates them: an unmasked SSE
// exception becomes SIGFPE delivered to the thread with the faulting
// context, a #DB trap becomes SIGTRAP, and the sigreturn path restores
// (possibly handler-modified) context — which is how FPSpy masks
// exceptions and arms single-stepping from user level.
package kernel

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TaskState is the lifecycle state of a task.
type TaskState uint8

const (
	// TaskRunnable tasks participate in scheduling.
	TaskRunnable TaskState = iota
	// TaskBlocked tasks wait on another task's exit (pthread_join).
	TaskBlocked
	// TaskExited tasks have terminated normally.
	TaskExited
	// TaskKilled tasks were terminated by a fatal signal.
	TaskKilled
)

// Task is one thread of execution: a guest CPU context plus accounting.
type Task struct {
	// TID is the thread id (unique across the kernel).
	TID int
	// Proc is the owning process.
	Proc *Process
	// M is the guest machine; memory is shared with the process.
	M *machine.Machine
	// State is the lifecycle state.
	State TaskState

	// UserCycles and SysCycles account execution time.
	UserCycles uint64
	SysCycles  uint64

	// OnExit hooks run when the task terminates (used by FPSpy's thread
	// teardown thunk).
	OnExit []func(*Kernel, *Task)

	// savedCtx stacks contexts for guest signal handlers.
	savedCtx []machine.CPU

	// timers are the per-task interval timers.
	timers [2]timer

	// pendingKill marks the task for termination by signal.
	pendingKill bool

	// pendingSigs are chaos-delayed signals awaiting delivery (see
	// Inject.DelayMax); empty except under injection.
	pendingSigs []pendingSig

	// sigInfo and mctx are per-task scratch reused across signal
	// deliveries, keeping the trap hot path (two deliveries per traced FP
	// event) free of heap allocation. Handlers run synchronously and must
	// not retain either pointer past their return.
	sigInfo SigInfo
	mctx    MContext
}

// mcontext returns the task's reusable machine-context view.
func (t *Task) mcontext() *MContext {
	if t.mctx.Task == nil {
		t.mctx = MContext{CPU: &t.M.CPU, Task: t}
	}
	return &t.mctx
}

// Process is a group of tasks sharing memory, signal dispositions, an
// environment, and a dynamic linker instance.
type Process struct {
	// PID is the process id.
	PID int
	// Tasks are the member threads (index 0 is the initial thread).
	Tasks []*Task
	// Mem is the memory every task of the process shares.
	Mem *machine.Memory
	// Env is the process environment (FPSpy's whole interface).
	Env map[string]string
	// Handlers maps signals to dispositions.
	Handlers map[Signal]*SigAction
	// Linker resolves libc symbols through the preload chain.
	Linker *Linker
	// Prog is the program image all tasks execute.
	Prog *isa.Program
	// Exited is true once the process has terminated.
	Exited bool
	// ExitCode is the status at exit.
	ExitCode int

	// stackTop is the bump allocator for thread stacks (grows down).
	stackTop uint64
}

// Kernel is the simulated OS instance.
type Kernel struct {
	// Procs are all processes ever created, by pid.
	Procs map[int]*Process
	// Cost is the cycle cost model.
	Cost CostModel
	// Cycles is the global wall clock in cycles (advances with the
	// longest-running virtual CPU).
	Cycles uint64
	// NoFastPath forces the precise per-instruction execution path,
	// disabling the batched straight-line fast path. It is the reference
	// the engine differentials check the fast path against; the two
	// paths are bit-identical by construction, so leaving this false is
	// always safe.
	NoFastPath bool
	// Inject, when non-nil, enables seeded chaos perturbations (delayed
	// signal delivery, adversarial scheduling). Nil for normal runs.
	Inject *Inject
	// Obs, when non-nil, receives kernel observability: per-signal
	// delivery counts, fast-path batch statistics, mcontext mutations,
	// timer fires, scheduler rounds. Nil (obs.Disabled) means every
	// instrumentation point reduces to a single pointer test; the
	// instruments never feed back into simulation state, so enabling
	// them cannot change execution.
	Obs *obs.Metrics

	nextPID  int
	nextTID  int
	runq     []*Task
	preloads map[string]ObjectFactory
	// joinWaiters maps a tid to the tasks blocked joining it.
	joinWaiters map[int][]*Task
}

// New creates an empty kernel with the default cost model.
func New() *Kernel {
	return &Kernel{
		Procs:       make(map[int]*Process),
		Cost:        DefaultCostModel(),
		nextPID:     1000,
		nextTID:     1000,
		preloads:    make(map[string]ObjectFactory),
		joinWaiters: make(map[int][]*Task),
	}
}

// RegisterPreload makes a preloadable object available to LD_PRELOAD
// under the given name.
func (k *Kernel) RegisterPreload(name string, f ObjectFactory) {
	k.preloads[name] = f
}

// StackSize is the per-thread stack reservation.
const StackSize = 64 * 1024

// Spawn creates a process running prog with the given memory size and
// environment, links it against libc plus any preload objects named in
// env's LD_PRELOAD (resolved via the registry), and runs constructors.
func (k *Kernel) Spawn(prog *isa.Program, memSize int, env map[string]string) (*Process, error) {
	if env == nil {
		env = make(map[string]string)
	}
	p := &Process{
		PID:      k.nextPID,
		Env:      env,
		Handlers: make(map[Signal]*SigAction),
		Prog:     prog,
	}
	k.nextPID++
	m := machine.New(prog, memSize)
	p.Mem = m.Mem
	p.stackTop = uint64(memSize)
	t := k.addTask(p, m)
	t.M.CPU.R[isa.SP] = p.allocStack()

	ld, err := newLinker(k, p, env["LD_PRELOAD"])
	if err != nil {
		return nil, err
	}
	p.Linker = ld
	k.Procs[p.PID] = p

	// Run constructors (preload objects first, like ld.so).
	for _, obj := range ld.chain {
		if obj.Constructor != nil {
			obj.Constructor(k, t)
		}
	}
	return p, nil
}

func (p *Process) allocStack() uint64 {
	p.stackTop -= StackSize
	return p.stackTop + StackSize - 16
}

func (k *Kernel) addTask(p *Process, m *machine.Machine) *Task {
	if k.Obs != nil {
		m.Obs = &k.Obs.Machine
		m.Flops = &k.Obs.Flop
	}
	t := &Task{TID: k.nextTID, Proc: p, M: m}
	k.nextTID++
	p.Tasks = append(p.Tasks, t)
	k.runq = append(k.runq, t)
	return t
}

// SpawnThread creates a new task in p starting at entry with arg in R1
// and a fresh stack. It mirrors clone(CLONE_VM|...).
func (k *Kernel) SpawnThread(p *Process, entry uint64, arg uint64) *Task {
	m := &machine.Machine{Prog: p.Prog, Mem: p.Mem}
	m.CPU.RIP = entry
	m.CPU.MXCSR = 0x1F80
	t := k.addTask(p, m)
	t.M.CPU.R[isa.R1] = arg
	t.M.CPU.R[isa.SP] = p.allocStack()
	return t
}

// Fork duplicates the calling task's process: memory is cloned
// copy-on-write, the calling thread alone is replicated, and the child
// resumes at the same RIP with R1 = 0 while the parent sees the child
// pid.
func (k *Kernel) Fork(t *Task) *Process {
	parent := t.Proc
	child := &Process{
		PID:      k.nextPID,
		Env:      copyEnv(parent.Env),
		Handlers: make(map[Signal]*SigAction),
		Prog:     parent.Prog,
		Mem:      parent.Mem.Clone(),
		stackTop: parent.stackTop,
	}
	k.nextPID++
	// Dispositions are inherited across fork.
	for s, a := range parent.Handlers {
		dup := *a
		child.Handlers[s] = &dup
	}
	m := &machine.Machine{Prog: child.Prog, Mem: child.Mem}
	m.CPU = t.M.CPU // full register state, including MXCSR
	ct := k.addTask(child, m)
	ct.M.CPU.R[isa.R1] = 0
	t.M.CPU.R[isa.R1] = uint64(child.PID)
	// The child shares the parent's linker chain objects (same mapped
	// libraries), but state-bearing preload objects re-initialize via
	// their fork interposition, exactly as FPSpy does.
	child.Linker = parent.Linker.cloneFor(child)
	k.Procs[child.PID] = child
	return child
}

func copyEnv(env map[string]string) map[string]string {
	dup := make(map[string]string, len(env))
	for k, v := range env {
		dup[k] = v
	}
	return dup
}

// JoinTask blocks t until target exits. If the target has already
// terminated, t continues immediately.
func (k *Kernel) JoinTask(t *Task, targetTID int) {
	for _, tt := range t.Proc.Tasks {
		if tt.TID == targetTID {
			if tt.State == TaskExited || tt.State == TaskKilled {
				return
			}
			t.State = TaskBlocked
			k.joinWaiters[targetTID] = append(k.joinWaiters[targetTID], t)
			return
		}
	}
	// Unknown tid: no-op, as pthread_join with a bad id returns ESRCH.
}

// ExitTask terminates one task, running its exit hooks.
func (k *Kernel) ExitTask(t *Task, state TaskState) {
	if t.State != TaskRunnable && t.State != TaskBlocked {
		return
	}
	t.State = state
	for i := len(t.OnExit) - 1; i >= 0; i-- {
		t.OnExit[i](k, t)
	}
	// Wake joiners.
	for _, w := range k.joinWaiters[t.TID] {
		if w.State == TaskBlocked {
			w.State = TaskRunnable
		}
	}
	delete(k.joinWaiters, t.TID)
	live := 0
	for _, tt := range t.Proc.Tasks {
		if tt.State == TaskRunnable {
			live++
		}
	}
	if live == 0 && !t.Proc.Exited {
		k.exitProcess(t.Proc, 0)
	}
}

// ExitProcess terminates all tasks of a process.
func (k *Kernel) ExitProcess(p *Process, code int) {
	for _, t := range p.Tasks {
		if t.State == TaskRunnable {
			t.State = TaskExited
			for i := len(t.OnExit) - 1; i >= 0; i-- {
				t.OnExit[i](k, t)
			}
		}
	}
	k.exitProcess(p, code)
}

func (p *Process) String() string { return fmt.Sprintf("pid %d (%s)", p.PID, p.Prog.Name) }

func (k *Kernel) exitProcess(p *Process, code int) {
	if p.Exited {
		return
	}
	p.Exited = true
	p.ExitCode = code
	// Run destructors in reverse constructor order, on the initial task.
	if p.Linker != nil && len(p.Tasks) > 0 {
		t := p.Tasks[0]
		for i := len(p.Linker.chain) - 1; i >= 0; i-- {
			if d := p.Linker.chain[i].Destructor; d != nil {
				d(k, t)
			}
		}
	}
}

// quantum is the scheduler timeslice in instructions.
const quantum = 2000

// Run schedules all runnable tasks until everything exits or maxSteps
// executions have run. It returns the number of executions: every
// retired instruction, plus each execution that raised an event without
// retiring (an FP fault, which executes again after its trap, or a hlt).
func (k *Kernel) Run(maxSteps uint64) uint64 {
	var total uint64
	for total < maxSteps {
		ran := false
		// Stable task order: snapshot the run queue (it can grow when
		// threads or processes are created mid-quantum). Chaos injection
		// may permute the snapshot and jitter the timeslice.
		queue := k.schedOrder(k.runq)
		var maxTaskCycles uint64
		var ranTasks uint64
		for _, t := range queue {
			if t.State != TaskRunnable || t.Proc.Exited {
				continue
			}
			ran = true
			ranTasks++
			before := t.UserCycles + t.SysCycles
			steps := k.runTask(t, k.schedQuantum())
			total += steps
			delta := t.UserCycles + t.SysCycles - before
			if delta > maxTaskCycles {
				maxTaskCycles = delta
			}
		}
		// Wall clock advances by the longest slice among the virtual
		// CPUs this round (tasks run in parallel on distinct cores).
		k.Cycles += maxTaskCycles
		if !ran {
			break
		}
		if k.Obs != nil {
			k.Obs.Kernel.SchedRounds.Inc()
			k.Obs.Kernel.SchedTasks.Observe(ranTasks)
		}
		k.gcRunq()
	}
	return total
}

func (k *Kernel) gcRunq() {
	live := k.runq[:0]
	for _, t := range k.runq {
		if (t.State == TaskRunnable || t.State == TaskBlocked) && !t.Proc.Exited {
			live = append(live, t)
		}
	}
	k.runq = live
}

// runTask executes up to n instructions on one task, handling events.
//
// Execution alternates between two bit-identical paths. The fast path
// retires straight runs of non-faulting, non-TF instructions in a single
// machine call (machine.RunStraight) and accounts their cycles and timer
// credit in bulk; fastBatch bounds each run so that no timer can expire
// inside it, and refuses to run at all when TF single-stepping is armed,
// a kill is pending, or the fast path is disabled. The precise path is
// the original step-at-a-time loop; every event — FP fault, trap,
// breakpoint, libc call, halt, machine fault — is accounted there, at
// the exact step it occurred.
func (k *Kernel) runTask(t *Task, n uint64) uint64 {
	var steps uint64
	for steps < n && t.State == TaskRunnable && !t.Proc.Exited {
		// Reserve one step of quantum for the event that ends the batch,
		// so a batch plus its eventful step never exceeds the budget.
		if batch := k.fastBatch(t, n-steps-1); batch > 0 {
			clean, ev := t.M.RunStraight(batch)
			if clean > 0 {
				steps += clean
				cycles := clean * k.Cost.Instruction
				t.UserCycles += cycles
				k.creditTimers(t, clean, cycles)
				if k.Obs != nil {
					k.Obs.Kernel.FastSteps.Add(clean)
					k.Obs.Kernel.FastBatch.Observe(clean)
				}
			}
			if ev == nil {
				continue
			}
			steps++
			k.completeStep(t, ev)
			continue
		}
		ev := t.M.Step()
		steps++
		k.completeStep(t, ev)
	}
	return steps
}

// completeStep applies the cycle accounting, event handling, timer
// ticking, and kill check for one executed machine step — the per-step
// tail shared by the precise path and the eventful step ending a batch.
func (k *Kernel) completeStep(t *Task, ev machine.Event) {
	before := t.UserCycles + t.SysCycles
	t.UserCycles += k.Cost.Instruction
	if k.Obs != nil {
		k.Obs.Kernel.PreciseSteps.Inc()
	}
	switch e := ev.(type) {
	case nil:
	case *machine.FPEvent:
		t.SysCycles += k.Cost.FPFault
		t.sigInfo = SigInfo{Signo: SIGFPE, Addr: e.Addr, Raised: e.Raised, Unmasked: e.Unmasked}
		k.deliverSignal(t, SIGFPE, &t.sigInfo)
	case *machine.TrapEvent:
		t.SysCycles += k.Cost.Trap
		t.sigInfo = SigInfo{Signo: SIGTRAP, Addr: e.Addr}
		k.deliverSignal(t, SIGTRAP, &t.sigInfo)
	case *machine.BreakpointEvent:
		t.SysCycles += k.Cost.Trap
		t.sigInfo = SigInfo{Signo: SIGILL, Addr: e.Addr}
		k.deliverSignal(t, SIGILL, &t.sigInfo)
	case *machine.CallCEvent:
		t.SysCycles += k.Cost.Syscall
		k.dispatchLibc(t, e.Sym)
	case *machine.HaltEvent:
		k.ExitTask(t, TaskExited)
	case *machine.FaultEvent:
		t.sigInfo = SigInfo{Signo: SIGSEGV, Addr: e.Addr, Reason: e.Reason}
		k.deliverSignal(t, SIGSEGV, &t.sigInfo)
	}
	if t.State == TaskRunnable && !t.Proc.Exited {
		k.tickTimers(t, t.UserCycles+t.SysCycles-before)
	}
	if len(t.pendingSigs) > 0 && t.State == TaskRunnable && !t.Proc.Exited {
		k.drainPending(t)
	}
	if t.pendingKill {
		t.pendingKill = false
		k.ExitTask(t, TaskKilled)
	}
}

// fastBatch returns how many instructions may retire on the fast path
// before something needs per-instruction precision: zero when the fast
// path is unavailable (TF armed, kill pending, disabled, no budget),
// otherwise the largest count guaranteed not to reach a timer expiry.
// Events other than timer expiry need no bound — they surface from
// RunStraight and terminate the batch on their own.
func (k *Kernel) fastBatch(t *Task, budget uint64) uint64 {
	if k.NoFastPath || budget == 0 || t.M.CPU.TF || t.pendingKill {
		return 0
	}
	// Delayed signals tick in instruction time on the precise path;
	// batching past a pending delivery point would skip it.
	if len(t.pendingSigs) > 0 {
		return 0
	}
	batch := budget
	if tm := &t.timers[TimerVirtual]; tm.armed {
		// The virtual timer fires on the tick where remaining <= 1, after
		// decrementing once per retired instruction.
		if tm.remaining <= 1 {
			return 0
		}
		if lim := tm.remaining - 1; lim < batch {
			batch = lim
		}
	}
	if tm := &t.timers[TimerReal]; tm.armed {
		// The real timer fires on the tick where remaining <= cycles; a
		// clean fast-path step always costs exactly Cost.Instruction.
		if c := k.Cost.Instruction; c > 0 {
			if tm.remaining <= c {
				return 0
			}
			if lim := (tm.remaining - 1) / c; lim < batch {
				batch = lim
			}
		}
	}
	return batch
}

// creditTimers advances both timers past a clean batch whose size
// fastBatch bounded, so neither can have expired inside it.
func (k *Kernel) creditTimers(t *Task, steps, cycles uint64) {
	if tm := &t.timers[TimerVirtual]; tm.armed {
		tm.remaining -= steps
	}
	if tm := &t.timers[TimerReal]; tm.armed {
		tm.remaining -= cycles
	}
}

// WallSeconds converts the global cycle clock to seconds at the given
// clock rate (Hz).
func (k *Kernel) WallSeconds(hz float64) float64 {
	return float64(k.Cycles) / hz
}

// ProcessTimes sums user and system cycles over a process's tasks.
func (p *Process) ProcessTimes() (user, sys uint64) {
	for _, t := range p.Tasks {
		user += t.UserCycles
		sys += t.SysCycles
	}
	return
}

// TaskIDs returns the process's task ids in creation order.
func (p *Process) TaskIDs() []int {
	ids := make([]int, len(p.Tasks))
	for i, t := range p.Tasks {
		ids[i] = t.TID
	}
	sort.Ints(ids)
	return ids
}
