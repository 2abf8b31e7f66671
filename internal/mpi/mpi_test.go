package mpi_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/softfloat"
)

// buildRingProgram: each rank computes rank/3.0 (Inexact), sends the
// bits to rank+1, receives from rank-1, accumulates, hits a barrier,
// and rank 0 additionally divides by zero after the barrier.
func buildRingProgram() *isa.Program {
	b := isa.NewBuilder("mpi-ring")
	b.CallC("MPI_Comm_rank")
	b.Mov(isa.R10, isa.R1) // rank
	b.CallC("MPI_Comm_size")
	b.Mov(isa.R11, isa.R1) // size

	// value = rank / 3.0 (rounds for rank not divisible by 3)
	b.Cvt(isa.OpCVTSI2SD, isa.X0, isa.R10)
	b.Movi(isa.R6, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R6)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)

	// send to (rank+1) % size
	b.Addi(isa.R1, isa.R10, 1)
	b.Remq(isa.R1, isa.R1, isa.R11)
	b.Movxq(isa.R2, isa.X2)
	b.CallC("MPI_Send")

	// receive from (rank-1+size) % size, polling
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Addi(isa.R12, isa.R12, -1)
	b.Remq(isa.R12, isa.R12, isa.R11)
	recv := b.Label("recv")
	b.Bind(recv)
	b.Mov(isa.R1, isa.R12)
	b.CallC("MPI_Recv_poll")
	b.Beq(isa.R1, isa.R0, recv)
	b.Movqx(isa.X3, isa.R2)                    // neighbor's value
	b.FP2(isa.OpADDSD, isa.X4, isa.X2, isa.X3) // accumulate (rounds)

	// barrier
	bar := b.Label("bar")
	b.Bind(bar)
	b.CallC("MPI_Barrier_poll")
	b.Beq(isa.R1, isa.R0, bar)

	// rank 0 divides by zero after the barrier
	skip := b.Label("skip")
	b.Bne(isa.R10, isa.R0, skip)
	b.Movi(isa.R6, int64(math.Float64bits(5)))
	b.Movqx(isa.X5, isa.R6)
	b.Movqx(isa.X6, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X7, isa.X5, isa.X6)
	b.Bind(skip)
	b.Hlt()
	return b.Build()
}

func runMPIJob(t *testing.T, ranks int, env map[string]string, store *core.Store) (*kernel.Kernel, *mpi.World, []*kernel.Process) {
	t.Helper()
	k := kernel.New()
	if store != nil {
		k.RegisterPreload(core.PreloadName, core.Factory(store, nil))
	}
	w, procs, err := mpi.Launch(k, buildRingProgram(), ranks, 1<<21, env)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(50_000_000)
	for i, p := range procs {
		if !p.Exited {
			t.Fatalf("rank %d did not exit", i)
		}
		if p.ExitCode != 0 {
			t.Fatalf("rank %d exit %d", i, p.ExitCode)
		}
	}
	return k, w, procs
}

func TestRingCommunicates(t *testing.T) {
	_, w, procs := runMPIJob(t, 4, nil, nil)
	if w.Sends != 4 {
		t.Errorf("sends = %d, want 4", w.Sends)
	}
	// Each rank accumulated rank/3 + prev/3.
	for i, p := range procs {
		got := math.Float64frombits(p.Tasks[0].M.CPU.X[isa.X4][0])
		prev := (i + 3) % 4
		want := float64(i)/3.0 + float64(prev)/3.0
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d accumulated %v, want %v", i, got, want)
		}
	}
}

// TestFPSpyUnderMpirun reproduces the paper's operational claim: putting
// FPSpy in the launcher's environment attaches it to every rank, with an
// independent trace per rank.
func TestFPSpyUnderMpirun(t *testing.T) {
	store := core.NewStore()
	cfg := core.Config{Mode: core.ModeIndividual, ExceptList: core.AllEvents, VirtualTimer: true}
	env := cfg.EnvVars() // includes LD_PRELOAD=fpspy.so
	const ranks = 4
	_, _, procs := runMPIJob(t, ranks, env, store)

	threads := store.Threads()
	if len(threads) != ranks {
		t.Fatalf("traced threads = %d, want one per rank", len(threads))
	}
	pids := map[int]bool{}
	for _, key := range threads {
		pids[key.PID] = true
	}
	if len(pids) != ranks {
		t.Errorf("traces from %d distinct pids, want %d", len(pids), ranks)
	}
	// Only rank 0 divided by zero.
	var zeRanks int
	for _, key := range threads {
		recs, err := store.Records(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if recs[i].Event == softfloat.FlagDivideByZero {
				zeRanks++
				if key.PID != procs[0].PID {
					t.Errorf("ZE in wrong rank pid %d", key.PID)
				}
			}
		}
	}
	if zeRanks != 1 {
		t.Errorf("ZE events = %d, want 1 (rank 0 only)", zeRanks)
	}
}

func TestAggregateUnderMpirun(t *testing.T) {
	store := core.NewStore()
	cfg := core.Config{Mode: core.ModeAggregate, ExceptList: core.AllEvents, VirtualTimer: true}
	_, _, procs := runMPIJob(t, 3, cfg.EnvVars(), store)
	aggs := store.Aggregates()
	if len(aggs) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(aggs))
	}
	var ze int
	for _, a := range aggs {
		if a.Flags&softfloat.FlagDivideByZero != 0 {
			ze++
		}
		// Rank 0's arithmetic (0/3, 0+x) is exact; every other rank
		// rounds.
		if a.PID != procs[0].PID && a.Flags&softfloat.FlagInexact == 0 {
			t.Errorf("rank pid %d missing PE", a.PID)
		}
	}
	if ze != 1 {
		t.Errorf("ZE ranks = %d, want 1", ze)
	}
}

func TestBarrierSequences(t *testing.T) {
	// Two consecutive barriers must both release (regression for the
	// generation bookkeeping).
	b := isa.NewBuilder("barriers")
	for i := 0; i < 2; i++ {
		bar := b.Label("bar")
		b.Bind(bar)
		b.CallC("MPI_Barrier_poll")
		b.Beq(isa.R1, isa.R0, bar)
	}
	b.Movi(isa.R9, 99)
	b.Hlt()
	k := kernel.New()
	_, procs, err := mpi.Launch(k, b.Build(), 3, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10_000_000)
	for i, p := range procs {
		if !p.Exited {
			t.Fatalf("rank %d stuck", i)
		}
		if p.Tasks[0].M.CPU.R[isa.R9] != 99 {
			t.Errorf("rank %d did not pass both barriers", i)
		}
	}
}
