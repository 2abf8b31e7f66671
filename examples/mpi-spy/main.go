// MPI spy: FPSpy attaching to a distributed-memory job exactly as the
// paper describes — "this also allows FPSpy to be used in models where
// the executable is launched in an indirect manner, such as MPI's
// mpirun": the launcher's environment (LD_PRELOAD + FPE_*) is inherited
// by every rank, and each rank produces its own trace.
package main

import (
	"fmt"
	"math"

	fpspy "repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mpi"
)

// buildHaloSolver: each rank relaxes a local domain and exchanges halo
// values with its ring neighbors every step. Rank 2 has a degenerate
// cell that divides by zero once.
func buildHaloSolver() *fpspy.Program {
	b := fpspy.NewProgram("halo-solver")
	b.CallC("MPI_Comm_rank")
	b.Mov(isa.R10, isa.R1)
	b.CallC("MPI_Comm_size")
	b.Mov(isa.R11, isa.R1)

	// Local state: u = 1 + rank/7.
	b.Cvt(isa.OpCVTSI2SD, isa.X0, isa.R10)
	b.Movi(isa.R6, int64(math.Float64bits(7)))
	b.Movqx(isa.X1, isa.R6)
	b.FP2(isa.OpDIVSD, isa.X0, isa.X0, isa.X1)
	b.Movi(isa.R6, int64(math.Float64bits(1)))
	b.Movqx(isa.X1, isa.R6)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)

	// Rank 2's degenerate cell.
	skip := b.Label("skipdeg")
	b.Movi(isa.R6, 2)
	b.Bne(isa.R10, isa.R6, skip)
	b.Movqx(isa.X5, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X6, isa.X0, isa.X5) // u/0
	b.Bind(skip)

	// 5 halo-exchange relaxation steps.
	b.Movi(isa.R13, 0)
	b.Movi(isa.R12, 5)
	step := b.Label("step")
	b.Bind(step)
	// send u to right neighbor
	b.Addi(isa.R1, isa.R10, 1)
	b.Remq(isa.R1, isa.R1, isa.R11)
	b.Movxq(isa.R2, isa.X0)
	b.CallC("MPI_Send")
	// recv from left neighbor
	b.Add(isa.R9, isa.R10, isa.R11)
	b.Addi(isa.R9, isa.R9, -1)
	b.Remq(isa.R9, isa.R9, isa.R11)
	recv := b.Label("recv")
	b.Bind(recv)
	b.Mov(isa.R1, isa.R9)
	b.CallC("MPI_Recv_poll")
	b.Beq(isa.R1, isa.R0, recv)
	b.Movqx(isa.X2, isa.R2)
	// u = 0.5*(u + halo)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X2)
	b.Movi(isa.R6, int64(math.Float64bits(0.5)))
	b.Movqx(isa.X3, isa.R6)
	b.FP2(isa.OpMULSD, isa.X0, isa.X0, isa.X3)
	b.Addi(isa.R13, isa.R13, 1)
	b.Blt(isa.R13, isa.R12, step)
	b.Hlt()
	return b.Build()
}

func main() {
	const ranks = 4
	k := kernel.New()
	store := core.NewStore()
	k.RegisterPreload(core.PreloadName, core.Factory(store, nil))

	// The production launch path: mpirun inherits FPSpy's environment.
	cfg := core.Config{
		Mode:       core.ModeIndividual,
		ExceptList: core.AllEvents &^ fpspy.FlagInexact,
	}
	_, procs, err := mpi.Launch(k, buildHaloSolver(), ranks, 4<<20, cfg.EnvVars())
	if err != nil {
		panic(err)
	}
	k.Run(50_000_000)

	fmt.Printf("mpirun -np %d halo-solver (FPSpy attached through the environment)\n\n", ranks)
	for i, p := range procs {
		u := math.Float64frombits(p.Tasks[0].M.CPU.X[isa.X0][0])
		fmt.Printf("rank %d (pid %d): exit %d, converged u = %.6f\n", i, p.PID, p.ExitCode, u)
	}
	fmt.Println("\nper-rank traces:")
	for _, key := range store.Threads() {
		recs, err := store.Records(key)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %v: %d problematic events", key, len(recs))
		for i := range recs {
			fmt.Printf(" [%s %v at %#x]", fpspy.Mnemonic(&recs[i]), recs[i].Event, recs[i].Rip)
		}
		fmt.Println()
	}
}
