// Package core implements FPSpy: the paper's tool for spying on the
// floating point behavior of existing, unmodified binaries. It is built
// as an LD_PRELOAD object for the simulated kernel and is configured
// entirely through environment variables, exactly as the paper's Figure 2
// describes:
//
//	LD_PRELOAD       add FPSpy to the run (handled by the linker)
//	FPE_MODE         "aggregate" or "individual"
//	FPE_AGGRESSIVE   "yes": do not step aside when the application uses
//	                 SIGTRAP/SIGFPE/the alarm signal only incidentally
//	FPE_DISABLE      "yes": load but do nothing
//	FPE_EXCEPT_LIST  comma-separated subset of events to capture
//	FPE_MAXCOUNT     per-thread cap on recorded events
//	FPE_SAMPLE       "N" record every Nth event, or "on:off" temporal
//	                 sampling period means in microseconds
//	FPE_POISSON      "yes": draw on/off periods from an exponential
//	                 distribution (PASTA sampling)
//	FPE_TIMER        "real" or "virtual" time for temporal sampling
//	FPE_STORM        "N:C" trap-storm watchdog: demote to aggregate mode
//	                 when a thread takes N faults within C cycles
//	FPE_SHADOW       shadow-precision channel: recompute every FP op at
//	                 N mantissa bits and attribute rounding error per
//	                 site (0/unset disables)
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/softfloat"
)

// Mode selects FPSpy's operating mode.
type Mode uint8

const (
	// ModeAggregate uses only the sticky condition codes: one record per
	// thread, virtually no overhead.
	ModeAggregate Mode = iota
	// ModeIndividual unmasks exceptions and captures a record per
	// faulting instruction via the trap-and-single-step state machine.
	ModeIndividual
)

// String names the mode as the environment variable spells it.
func (m Mode) String() string {
	if m == ModeAggregate {
		return "aggregate"
	}
	return "individual"
}

// AllEvents is the full set of observable conditions.
const AllEvents = softfloat.Flags(0x3F)

// Config is FPSpy's parsed configuration.
type Config struct {
	// Mode is the operating mode.
	Mode Mode
	// Disable makes FPSpy inert.
	Disable bool
	// Aggressive keeps FPSpy attached when the application merely hooks
	// the signals FPSpy uses.
	Aggressive bool
	// ExceptList is the set of events to capture (individual mode).
	ExceptList softfloat.Flags
	// MaxCount, when nonzero, disables capture on a thread after this
	// many recorded events.
	MaxCount uint64
	// SampleEvery, when nonzero, records only every Nth faulting event.
	SampleEvery uint64
	// SampleOnUS/SampleOffUS, when nonzero, enable temporal sampling
	// with the given mean on/off periods in microseconds.
	SampleOnUS, SampleOffUS uint64
	// Poisson draws the on/off periods from an exponential distribution.
	Poisson bool
	// VirtualTimer selects instruction time over real time for the
	// temporal sampler.
	VirtualTimer bool
	// Breakpoints selects the Section 3.8 alternative single-event
	// mechanism: instead of TF single-stepping, the next instruction is
	// stubbed with an invalid opcode and restored on the SIGILL. (An
	// extension beyond the paper's implementation, which describes the
	// approach for architectures without a convenient trap flag.)
	Breakpoints bool
	// StormFaults/StormCycles, when nonzero, arm the trap-storm watchdog:
	// a thread taking StormFaults SIGFPEs within a StormCycles window
	// demotes the whole process to aggregate mode.
	StormFaults, StormCycles uint64
	// ShadowPrec, when nonzero, attaches a shadow-precision channel
	// (internal/shadow) to every monitored thread's machine: each retired
	// FP instruction is recomputed at ShadowPrec bits (fixed-width
	// arithmetic up to 113 bits, big.Float above, with identical
	// results) and its rounding error attributed to the instruction
	// site. 0 (the default) disables shadowing; the guest's
	// architectural results are bit-identical either way — the channel
	// only observes.
	ShadowPrec uint64
}

// Shadow precision bounds (mantissa bits). The floor is binary32's 24 so
// a shadow can emulate any native format exactly; the ceiling keeps a
// pathological FPE_SHADOW from allocating multi-kilobyte mantissas per
// lane.
const (
	MinShadowPrec = 24
	MaxShadowPrec = 4096
)

// eventNames maps FPE_EXCEPT_LIST tokens to condition flags.
var eventNames = map[string]softfloat.Flags{
	"invalid":      softfloat.FlagInvalid,
	"denorm":       softfloat.FlagDenormal,
	"divide":       softfloat.FlagDivideByZero,
	"dividebyzero": softfloat.FlagDivideByZero,
	"overflow":     softfloat.FlagOverflow,
	"underflow":    softfloat.FlagUnderflow,
	"inexact":      softfloat.FlagInexact,
	"rounding":     softfloat.FlagInexact,
	"all":          AllEvents,
}

// ParseConfig builds a Config from an environment map. Only FPE_MODE is
// required; everything else has the paper's defaults.
func ParseConfig(env map[string]string) (Config, error) {
	cfg := Config{ExceptList: AllEvents}
	switch strings.ToLower(env["FPE_MODE"]) {
	case "", "aggregate":
		cfg.Mode = ModeAggregate
	case "individual":
		cfg.Mode = ModeIndividual
	default:
		return cfg, fmt.Errorf("fpspy: unknown FPE_MODE %q", env["FPE_MODE"])
	}
	cfg.Disable = isYes(env["FPE_DISABLE"])
	cfg.Aggressive = isYes(env["FPE_AGGRESSIVE"])
	cfg.Poisson = isYes(env["FPE_POISSON"])
	cfg.Breakpoints = isYes(env["FPE_BRKPT"])
	if v := env["FPE_SHADOW"]; v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n < MinShadowPrec || n > MaxShadowPrec {
			return cfg, fmt.Errorf("fpspy: bad FPE_SHADOW %q (want precision in [%d,%d])",
				v, MinShadowPrec, MaxShadowPrec)
		}
		cfg.ShadowPrec = n
	}
	switch strings.ToLower(env["FPE_TIMER"]) {
	case "", "virtual":
		cfg.VirtualTimer = true
	case "real":
		cfg.VirtualTimer = false
	default:
		return cfg, fmt.Errorf("fpspy: unknown FPE_TIMER %q", env["FPE_TIMER"])
	}
	if list := env["FPE_EXCEPT_LIST"]; list != "" {
		var set softfloat.Flags
		for _, tok := range strings.Split(list, ",") {
			f, ok := eventNames[strings.ToLower(strings.TrimSpace(tok))]
			if !ok {
				return cfg, fmt.Errorf("fpspy: unknown event %q in FPE_EXCEPT_LIST", tok)
			}
			set |= f
		}
		cfg.ExceptList = set
	}
	if v := env["FPE_MAXCOUNT"]; v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("fpspy: bad FPE_MAXCOUNT %q", v)
		}
		cfg.MaxCount = n
	}
	if v := env["FPE_STORM"]; v != "" {
		faults, cycles, ok := strings.Cut(v, ":")
		n, err1 := strconv.ParseUint(faults, 10, 64)
		var c uint64
		var err2 error
		if ok {
			c, err2 = strconv.ParseUint(cycles, 10, 64)
		}
		if !ok || err1 != nil || err2 != nil || n == 0 || c == 0 {
			return cfg, fmt.Errorf("fpspy: bad FPE_STORM %q (want faults:cycles)", v)
		}
		cfg.StormFaults, cfg.StormCycles = n, c
	}
	if v := env["FPE_SAMPLE"]; v != "" {
		if on, off, ok := strings.Cut(v, ":"); ok {
			onUS, err1 := strconv.ParseUint(on, 10, 64)
			offUS, err2 := strconv.ParseUint(off, 10, 64)
			if err1 != nil || err2 != nil || onUS == 0 || offUS == 0 {
				return cfg, fmt.Errorf("fpspy: bad FPE_SAMPLE %q", v)
			}
			cfg.SampleOnUS, cfg.SampleOffUS = onUS, offUS
		} else {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return cfg, fmt.Errorf("fpspy: bad FPE_SAMPLE %q", v)
			}
			cfg.SampleEvery = n
		}
	}
	return cfg, nil
}

func isYes(v string) bool {
	switch strings.ToLower(v) {
	case "yes", "y", "1", "true", "on":
		return true
	}
	return false
}

// EnvVars renders the config back to environment variables (the launch
// wrapper in cmd/fpspy and the public facade use this).
func (c Config) EnvVars() map[string]string {
	env := map[string]string{
		"LD_PRELOAD": PreloadName,
		"FPE_MODE":   c.Mode.String(),
	}
	if c.Disable {
		env["FPE_DISABLE"] = "yes"
	}
	if c.Aggressive {
		env["FPE_AGGRESSIVE"] = "yes"
	}
	if c.Poisson {
		env["FPE_POISSON"] = "yes"
	}
	if c.Breakpoints {
		env["FPE_BRKPT"] = "yes"
	}
	if c.ShadowPrec > 0 {
		env["FPE_SHADOW"] = strconv.FormatUint(c.ShadowPrec, 10)
	}
	if !c.VirtualTimer {
		env["FPE_TIMER"] = "real"
	}
	if c.ExceptList != AllEvents && c.ExceptList != 0 {
		var toks []string
		for name, f := range map[string]softfloat.Flags{
			"invalid": softfloat.FlagInvalid, "denorm": softfloat.FlagDenormal,
			"divide": softfloat.FlagDivideByZero, "overflow": softfloat.FlagOverflow,
			"underflow": softfloat.FlagUnderflow, "inexact": softfloat.FlagInexact,
		} {
			if c.ExceptList&f != 0 {
				toks = append(toks, name)
			}
		}
		env["FPE_EXCEPT_LIST"] = strings.Join(toks, ",")
	}
	if c.MaxCount > 0 {
		env["FPE_MAXCOUNT"] = strconv.FormatUint(c.MaxCount, 10)
	}
	if c.StormFaults > 0 && c.StormCycles > 0 {
		env["FPE_STORM"] = fmt.Sprintf("%d:%d", c.StormFaults, c.StormCycles)
	}
	switch {
	case c.SampleOnUS > 0:
		env["FPE_SAMPLE"] = fmt.Sprintf("%d:%d", c.SampleOnUS, c.SampleOffUS)
	case c.SampleEvery > 0:
		env["FPE_SAMPLE"] = strconv.FormatUint(c.SampleEvery, 10)
	}
	return env
}
