package kernel

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// timerGuest builds a guest that installs a SIGVTALRM handler, arms a
// 50-instruction virtual timer, and spins until the handler stores a
// flag at address 512.
func timerGuest() *isa.Program {
	b := isa.NewBuilder("inject-timer")
	handler := b.Label("handler")
	b.Movi(isa.R1, int64(SIGVTALRM))
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(TimerVirtual))
	b.Movi(isa.R2, 50)
	b.CallC("setitimer")
	b.Movi(isa.R7, 512)
	loop := b.Label("loop")
	b.Bind(loop)
	b.Ld(isa.R6, isa.R7, 0)
	b.Beq(isa.R6, isa.R0, loop)
	b.Hlt()
	b.Bind(handler)
	b.Movi(isa.R3, 512)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("rt_sigreturn")
	return b.Build()
}

func TestDelayedTimerSignalStillDelivered(t *testing.T) {
	k := New()
	k.Inject = NewInject(42)
	k.Inject.DelayMax = 25
	p, err := k.Spawn(timerGuest(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(100000)
	if !p.Exited {
		t.Fatal("process did not exit")
	}
	if memByte(p, 512) != 1 {
		t.Error("delayed timer handler never ran")
	}
}

// threadStormGuest builds a guest whose main thread spawns nworkers
// threads; worker i stores 40+i at address 512+8i and exits, and main
// spins until every slot is filled.
func threadStormGuest(nworkers int) *isa.Program {
	b := isa.NewBuilder("inject-threads")
	worker := b.Label("worker")
	for i := 0; i < nworkers; i++ {
		b.Lea(isa.R1, worker)
		b.Movi(isa.R2, int64(i)) // arg: worker index
		b.CallC("pthread_create")
	}
	for i := 0; i < nworkers; i++ {
		b.Movi(isa.R7, int64(512+8*i))
		loop := b.Label(fmt.Sprintf("wait%d", i))
		b.Bind(loop)
		b.Ld(isa.R6, isa.R7, 0)
		b.Beq(isa.R6, isa.R0, loop)
	}
	b.Hlt()
	b.Bind(worker)
	// R1 = worker index; store 40+index at 512+8*index.
	b.Shli(isa.R3, isa.R1, 3)
	b.Movi(isa.R4, 512)
	b.Add(isa.R3, isa.R3, isa.R4)
	b.Movi(isa.R5, 40)
	b.Add(isa.R5, isa.R5, isa.R1)
	b.St(isa.R3, 0, isa.R5)
	b.CallC("pthread_exit")
	return b.Build()
}

// runChaos runs the thread-storm guest under the given injection seed
// and returns a fingerprint of final state: per-task retired counts and
// the worker output slots.
func runChaos(t *testing.T, seed int64) string {
	t.Helper()
	k := New()
	k.Inject = NewInject(seed)
	k.Inject.DelayMax = 10
	k.Inject.ShuffleSched = true
	k.Inject.QuantumJitter = true
	p, err := k.Spawn(threadStormGuest(3), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(500000)
	if !p.Exited {
		t.Fatal("process did not exit under injection")
	}
	fp := ""
	for _, tk := range p.Tasks {
		fp += fmt.Sprintf("tid=%d retired=%d cycles=%d\n", tk.TID, tk.M.Retired, tk.UserCycles+tk.SysCycles)
	}
	for i := 0; i < 3; i++ {
		fp += fmt.Sprintf("slot%d=%d\n", i, memByte(p, uint64(512+8*i)))
	}
	return fp
}

func TestInjectSameSeedReproduces(t *testing.T) {
	a := runChaos(t, 7)
	b := runChaos(t, 7)
	if a != b {
		t.Errorf("same seed diverged:\n--- run1 ---\n%s--- run2 ---\n%s", a, b)
	}
}

func TestShuffleSchedAllTasksProgress(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fp := runChaos(t, seed)
		for i := 0; i < 3; i++ {
			want := fmt.Sprintf("slot%d=%d\n", i, 40+i)
			if !containsLine(fp, want) {
				t.Errorf("seed %d: worker %d never ran: fingerprint:\n%s", seed, i, fp)
			}
		}
	}
}

func containsLine(s, line string) bool {
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if i < len(s) {
			i++
		}
		if s[:i] == line {
			return true
		}
		s = s[i:]
	}
	return false
}
