package machine

import (
	"unsafe"

	"repro/internal/isa"
)

// MetaBytes is the size of one region entry.
const MetaBytes = unsafe.Sizeof(sbMeta{})

// RegionShortcuts builds the region that starts at instruction idx of
// prog and reports whether it closes a counted self-loop (SBLoop) and,
// keyed by the index of its first entry, the length of each dead span
// (SBDead).
func RegionShortcuts(prog *isa.Program, idx int) (loop bool, dead map[int]int) {
	dead = map[int]int{}
	for i, mt := range (&Machine{Prog: prog}).regionFor(idx).meta {
		if mt.kind == SBDead {
			dead[i] = int(mt.span)
		}
		loop = loop || mt.kind == SBLoop
	}
	return loop, dead
}
