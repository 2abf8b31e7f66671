package shadow

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/softfloat"
)

// Bounds on the channel's tracking maps. A guest that touches more
// distinct FP sites or shadowed memory words than this degrades
// gracefully: overflowing sites stop accumulating (counted), and
// overflowing memory shadows are dropped (the destination falls back to
// reset-to-native on the next load). Neither bound ever affects guest
// execution.
const (
	maxSites      = 1 << 14
	maxMemShadows = 1 << 16
)

// memShadow is the shadow of one stored float: v at the channel
// precision, single marking a 4-byte (binary32) slot. A load only
// consumes a shadow whose width matches.
type memShadow struct {
	v      val
	single bool
}

// siteAgg accumulates one instruction site's attribution statistics.
type siteAgg struct {
	op        string
	count     uint64
	diverged  uint64
	nonFinite uint64
	localUlps float64
	localRel  float64
	propUlps  float64
	totalUlps float64
	maxUlps   uint64
}

// pend is the capture of the observed instruction currently retiring:
// identity always, plus pre-execution operand state when the op
// is shadow-executable (the destination may alias a source, so inputs
// must be read before the machine writes back).
type pend struct {
	inst  *isa.Inst
	info  *isa.OpInfo
	addr  uint64
	arith bool   // supported arith/FMA with a clean FP environment
	mask  uint64 // live lanes (K-masked forms: masked-off lanes are dead)

	natA, natB, natC [isa.VecWords]uint64
	shA, shB, shC    [isa.VecWords]val
}

// Channel is the shadow-value channel for one machine. It implements
// machine.ShadowSink; Attach wires it in. All state is per-thread (the
// kernel simulation drives each machine single-threadedly), so the
// channel needs no locking.
type Channel struct {
	m  *machine.Machine
	om *obs.ShadowMetrics
	format

	// regs shadows each 64-bit vector word; regs32 shadows the low
	// binary32 lane of word 0 (scalar-F32 ops write only that half).
	// An unset val means "equal to the native value": shadows
	// materialize lazily from the architectural bits and invalidation
	// is simply a reset. The two tracks are mutually exclusive per word
	// 0 — every 64-bit write clears the 32-bit shadow and vice versa.
	regs   [isa.NumVecRegs][isa.VecWords]val
	regs32 [isa.NumVecRegs]val
	mem    map[uint64]memShadow
	// unaligned counts memory shadows at addresses that are not
	// multiples of 4; while it is 0, clobberMem probes only 4-aligned
	// addresses.
	unaligned int

	sites        map[uint64]*siteAgg
	siteOverflow uint64
	memDrops     uint64

	stats Stats
	pend  pend
}

// Stats is the channel's scalar accounting, for reports, tests and
// benchmarks.
type Stats struct {
	// Ops counts shadow-executed lane operations (comparison points).
	Ops uint64
	// Diverged counts lanes whose shadow rounded to different
	// native-format bits than the hardware produced.
	Diverged uint64
	// NonFinite counts lanes skipped under the NaN/Inf policy.
	NonFinite uint64
	// Invalidations counts destination shadows reset to native by
	// unsupported or non-finite operations.
	Invalidations uint64
	// MaxUlps is the largest integer ULP divergence observed.
	MaxUlps uint64
	// LocalUlps is the total fractional-ULP local error accumulated
	// across all sites.
	LocalUlps float64
	// Fallbacks counts lanes the fixed-width evaluator could not
	// certify and sent to big.Float (always 0 above maxFixedPrec,
	// where every lane runs in big.Float).
	Fallbacks uint64
}

// attachHook, set only by tests, sees every channel Attach builds
// before it runs.
var attachHook func(*Channel)

// Attach builds a channel at the given shadow precision and registers
// it as m's shadow sink. om may be nil (zero-overhead contract).
// Precisions up to maxFixedPrec evaluate in the fixed-width number
// system, wider ones in big.Float; the reports are identical.
func Attach(m *machine.Machine, prec uint, om *obs.ShadowMetrics) *Channel {
	ch := &Channel{
		m:      m,
		om:     om,
		format: newFormat(prec),
		mem:    make(map[uint64]memShadow),
	}
	if attachHook != nil {
		attachHook(ch)
	}
	m.SetShadow(ch)
	if om != nil {
		om.Channels.Inc()
	}
	return ch
}

// Prec returns the shadow mantissa precision in bits.
func (ch *Channel) Prec() uint { return ch.prec }

// Stats returns the channel's scalar accounting so far.
func (ch *Channel) Stats() Stats { return ch.stats }

// Sites converts the per-site aggregation into attribution rows,
// ordered by address. Ranking is the aggregator's job
// (analysis.BuildRootCause).
func (ch *Channel) Sites() []analysis.RootCauseSite {
	out := make([]analysis.RootCauseSite, 0, len(ch.sites))
	for addr, agg := range ch.sites {
		out = append(out, analysis.RootCauseSite{
			Addr:      addr,
			Op:        agg.op,
			Count:     agg.count,
			Diverged:  agg.diverged,
			NonFinite: agg.nonFinite,
			LocalUlps: agg.localUlps,
			LocalRel:  agg.localRel,
			PropUlps:  agg.propUlps,
			TotalUlps: agg.totalUlps,
			MaxUlps:   agg.maxUlps,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// envClean reports whether the FP environment matches the shadow
// semantics: round-to-nearest-even, no FTZ, no DAZ. Ops retired under
// any other environment are not shadow-executed (their results would
// diverge for reasons that are not rounding error).
func (ch *Channel) envClean() bool {
	e := ch.m.CPU.MXCSR.Env()
	return e.RM == softfloat.RoundNearestEven && !e.FTZ && !e.DAZ
}

// PreStep implements machine.ShadowSink: capture the instruction and,
// for shadow-executable ops, its pre-execution operands.
func (ch *Channel) PreStep(addr uint64, inst *isa.Inst, info *isa.OpInfo) {
	p := &ch.pend
	p.inst, p.info, p.addr = inst, info, addr
	p.arith = false
	switch info.Class {
	case isa.ClassFPArith, isa.ClassFMA:
		if !Supported(inst.Op) || !ch.envClean() {
			return
		}
		p.arith = true
		p.mask = uint64(1)<<uint(info.Lanes) - 1
		if info.Masked {
			p.mask &= ch.m.CPU.K[inst.Rs3%isa.NumMaskRegs]
		}
		ch.capture(p, inst, info)
	}
}

// capture records native input bits and shadow operands per live lane.
// Scalar binary32 ops live in the low half of word 0.
func (ch *Channel) capture(p *pend, inst *isa.Inst, info *isa.OpInfo) {
	c := &ch.m.CPU
	fma := info.Class == isa.ClassFMA
	if info.Prec == isa.F32 {
		p.natA[0] = c.X[inst.Rs1][0] & 0xFFFFFFFF
		p.natB[0] = c.X[inst.Rs2][0] & 0xFFFFFFFF
		p.shA[0] = ch.regs32[inst.Rs1]
		p.shB[0] = ch.regs32[inst.Rs2]
		if fma {
			p.natC[0] = c.X[inst.Rs3][0] & 0xFFFFFFFF
			p.shC[0] = ch.regs32[inst.Rs3]
		}
		return
	}
	for l := 0; l < info.Lanes; l++ {
		if p.mask>>uint(l)&1 == 0 {
			continue
		}
		p.natA[l] = c.X[inst.Rs1][l]
		p.natB[l] = c.X[inst.Rs2][l]
		p.shA[l] = ch.regs[inst.Rs1][l]
		p.shB[l] = ch.regs[inst.Rs2][l]
		if fma {
			p.natC[l] = c.X[inst.Rs3][l]
			p.shC[l] = ch.regs[inst.Rs3][l]
		}
	}
}

// Retired implements machine.ShadowSink: fold the retired instruction
// into the shadow state. Instructions that fault or trap before
// retirement never reach here — their pend capture goes stale and is
// overwritten by the next PreStep.
func (ch *Channel) Retired() {
	p := &ch.pend
	if p.inst == nil {
		return
	}
	inst, info := p.inst, p.info
	p.inst = nil
	switch info.Class {
	case isa.ClassFPArith, isa.ClassFMA:
		if !p.arith {
			ch.invalidateReg(inst.Rd)
			return
		}
		ch.applyArith(p, inst, info)
	case isa.ClassFPConvert:
		ch.applyConvert(inst, info)
	case isa.ClassFPCompare:
		// cmpsd/cmpss write an all-ones/zeros predicate into the
		// destination lane; comi/ucomi write an integer register.
		switch inst.Op {
		case isa.OpCMPSD, isa.OpCMPSS:
			ch.invalidateWord(inst.Rd, 0)
		}
	case isa.ClassFPRound, isa.ClassFPDot:
		ch.invalidateReg(inst.Rd)
	case isa.ClassFPMove:
		ch.applyMove(inst)
	case isa.ClassMem:
		ch.applyMem(inst)
	case isa.ClassInt, isa.ClassBranch, isa.ClassMask, isa.ClassSys:
		// No floating point state written; the machine does not
		// deliver these classes.
	}
}

// setWord installs (or resets) the shadow of a 64-bit vector word.
// Word 0 writes clear the binary32 shadow track.
func (ch *Channel) setWord(r uint8, l int, v val) {
	ch.regs[r][l] = v
	if l == 0 {
		ch.regs32[r] = val{}
	}
}

// set32 installs the shadow of the low binary32 lane; the 64-bit word
// containing it is no longer coherently shadowed.
func (ch *Channel) set32(r uint8, v val) {
	ch.regs32[r] = v
	ch.regs[r][0] = val{}
}

func (ch *Channel) invalidateWord(r uint8, l int) {
	if ch.regs[r][l].set || (l == 0 && ch.regs32[r].set) {
		ch.bumpInvalidation()
	}
	ch.setWord(r, l, val{})
}

func (ch *Channel) invalidateReg(r uint8) {
	for l := range ch.regs[r] {
		if ch.regs[r][l].set {
			ch.bumpInvalidation()
		}
		ch.regs[r][l] = val{}
	}
	if ch.regs32[r].set {
		ch.bumpInvalidation()
		ch.regs32[r] = val{}
	}
}

func (ch *Channel) bumpInvalidation() {
	ch.stats.Invalidations++
	if ch.om != nil {
		ch.om.Invalidations.Inc()
	}
}

// applyArith folds a supported arithmetic/FMA retirement into the
// shadow state and the site's attribution row. Masked-off lanes are
// untouched: they neither compute nor shadow-execute, and keep their
// prior shadows (merge masking preserved the architectural lanes too).
func (ch *Channel) applyArith(p *pend, inst *isa.Inst, info *isa.OpInfo) {
	if info.Prec != isa.F32 && p.mask == 0 {
		// Fully masked-off: nothing computed, nothing to attribute, and
		// merge masking preserved the destination (shadows included).
		return
	}
	agg := ch.site(p.addr, info.Name)
	ln := lane{fma: info.Class == isa.ClassFMA, fp: info.FP, v: info.FMA}
	if info.Prec == isa.F32 {
		ln.single = true
		ln.nat = [3]uint64{p.natA[0], p.natB[0], p.natC[0]}
		ln.sh = [3]val{p.shA[0], p.shB[0], p.shC[0]}
		ln.out = ch.m.CPU.X[inst.Rd][0] & 0xFFFFFFFF
		r := ch.evalLane(&ln)
		if r.class == SampleNonFinite {
			ch.invalidateWord(inst.Rd, 0)
		} else {
			ch.set32(inst.Rd, r.sh)
		}
		ch.account(agg, r)
		return
	}
	for l := 0; l < info.Lanes; l++ {
		if p.mask>>uint(l)&1 == 0 {
			continue
		}
		ln.nat = [3]uint64{p.natA[l], p.natB[l], p.natC[l]}
		ln.sh = [3]val{p.shA[l], p.shB[l], p.shC[l]}
		ln.out = ch.m.CPU.X[inst.Rd][l]
		r := ch.evalLane(&ln)
		if r.class == SampleNonFinite {
			ch.invalidateWord(inst.Rd, l)
		} else {
			ch.setWord(inst.Rd, l, r.sh)
		}
		ch.account(agg, r)
	}
}

// evalLane evaluates one lane in the channel's number format. A lane
// the fixed-width evaluator cannot certify runs in big.Float instead,
// counted as a fallback, and its shadow converts back exactly.
func (ch *Channel) evalLane(ln *lane) laneResult {
	if !ln.finite() {
		return laneResult{class: SampleNonFinite}
	}
	if !ch.fixed {
		return evalBig(ln, ch.prec, ch.wide)
	}
	if r, ok := evalFixed(ln, ch.prec, ch.wide); ok {
		return r
	}
	ch.stats.Fallbacks++
	if ch.om != nil {
		ch.om.Fallbacks.Inc()
	}
	r := evalBig(ln, ch.prec, ch.wide)
	if r.sh.set {
		r.sh = val{x: fixedOfBig(r.sh.big), set: true}
	}
	return r
}

// account folds one lane comparison into a site row (nil when the site
// table overflowed) and the channel stats.
func (ch *Channel) account(agg *siteAgg, r laneResult) {
	switch r.class {
	case SampleNonFinite:
		ch.stats.NonFinite++
		if agg != nil {
			agg.nonFinite++
		}
		if ch.om != nil {
			ch.om.NonFinite.Inc()
		}
		return
	case SampleExact, SampleRounded, SampleDiverged:
	}
	ch.stats.Ops++
	if r.class == SampleDiverged {
		ch.stats.Diverged++
	}
	if r.dist > ch.stats.MaxUlps {
		ch.stats.MaxUlps = r.dist
	}
	ch.stats.LocalUlps += r.local
	if ch.om != nil {
		ch.om.Ops.Inc()
		ch.om.Divergence.Observe(r.dist)
	}
	if agg == nil {
		return
	}
	agg.count++
	if r.class == SampleDiverged {
		agg.diverged++
	}
	agg.localUlps += r.local
	agg.localRel += r.rel
	agg.totalUlps += r.total
	if prop := r.total - r.local; prop > 0 {
		agg.propUlps += prop
	}
	if r.dist > agg.maxUlps {
		agg.maxUlps = r.dist
	}
}

// site returns the aggregation row for an instruction address, nil when
// the table is at capacity and the address is new.
func (ch *Channel) site(addr uint64, op string) *siteAgg {
	if agg, ok := ch.sites[addr]; ok {
		return agg
	}
	if ch.sites == nil {
		ch.sites = make(map[uint64]*siteAgg)
	}
	if len(ch.sites) >= maxSites {
		ch.siteOverflow++
		if ch.om != nil {
			ch.om.SiteOverflow.Inc()
		}
		return nil
	}
	agg := &siteAgg{op: op}
	ch.sites[addr] = agg
	if ch.om != nil {
		ch.om.Sites.SetMax(int64(len(ch.sites)))
	}
	return agg
}

// applyMove tracks register-to-register copies. movsd/movapd copy whole
// 64-bit words (shadows travel along); movss copies only the low half
// of word 0; movq from an integer register resets the word.
func (ch *Channel) applyMove(inst *isa.Inst) {
	switch inst.Op {
	case isa.OpMOVSD:
		ch.regs[inst.Rd][0] = ch.regs[inst.Rs1][0]
		ch.regs32[inst.Rd] = ch.regs32[inst.Rs1]
	case isa.OpMOVAPD:
		ch.regs[inst.Rd] = ch.regs[inst.Rs1]
		ch.regs32[inst.Rd] = ch.regs32[inst.Rs1]
	case isa.OpMOVSS:
		ch.regs[inst.Rd][0] = val{}
		ch.regs32[inst.Rd] = ch.regs32[inst.Rs1]
	case isa.OpMOVQX:
		ch.invalidateWord(inst.Rd, 0)
	case isa.OpMOVXQ:
		// Vector to integer register; no shadow state involved.
	}
}

// applyConvert invalidates what a conversion wrote: word 0 for the
// scalar forms, the whole register for packed ps2dq. Conversions to an
// integer register leave vector shadows alone.
func (ch *Channel) applyConvert(inst *isa.Inst, info *isa.OpInfo) {
	switch info.Cvt {
	case isa.CvtSD2SS, isa.CvtSS2SD, isa.CvtSI2SD, isa.CvtSI2SDQ,
		isa.CvtSI2SS, isa.CvtSI2SSQ:
		ch.invalidateWord(inst.Rd, 0)
	case isa.CvtPS2DQ:
		ch.invalidateReg(inst.Rd)
	case isa.CvtSD2SI, isa.CvtTSD2SI, isa.CvtTSD2SIQ, isa.CvtSS2SI,
		isa.CvtTSS2SI:
		// Integer destination.
	}
}

// applyMem threads shadows through loads and stores. Every store first
// clobbers overlapping shadow entries (any byte overlap kills an
// entry); loads consume width-matched entries or reset to native.
func (ch *Channel) applyMem(inst *isa.Inst) {
	c := &ch.m.CPU
	var ea uint64
	if inst.Rs1 != 0 {
		ea = c.R[inst.Rs1]
	}
	ea += uint64(inst.Imm)
	switch inst.Op {
	case isa.OpFLD:
		ch.regs32[inst.Rd] = val{}
		ch.regs[inst.Rd][0] = ch.load(ea, false)
	case isa.OpFST:
		ch.clobberMem(ea, 8)
		if sv := ch.regs[inst.Rs2][0]; sv.set {
			ch.putMem(ea, sv, false)
		}
	case isa.OpFLDS:
		// Word 0 is replaced wholesale (upper half zeroed).
		ch.regs[inst.Rd][0] = val{}
		ch.regs32[inst.Rd] = ch.load(ea, true)
	case isa.OpFSTS:
		ch.clobberMem(ea, 4)
		if sv := ch.regs32[inst.Rs2]; sv.set {
			ch.putMem(ea, sv, true)
		}
	case isa.OpFLDV:
		ch.loadVec(inst.Rd, ea, 4)
	case isa.OpFSTV:
		ch.storeVec(inst.Rs2, ea, 4)
	case isa.OpFLDVZ:
		ch.loadVec(inst.Rd, ea, isa.VecWords)
	case isa.OpFSTVZ:
		ch.storeVec(inst.Rs2, ea, isa.VecWords)
	case isa.OpST:
		ch.clobberMem(ea, 8)
	case isa.OpSTMXCSR:
		ch.clobberMem(ea, 4)
	case isa.OpLD, isa.OpLDMXCSR:
		// Loads of non-float state.
	}
}

// load returns the shadow stored at ea when its width matches, else
// the unset val (reset to native).
func (ch *Channel) load(ea uint64, single bool) val {
	if ms, ok := ch.mem[ea]; ok && ms.single == single {
		return ms.v
	}
	return val{}
}

func (ch *Channel) loadVec(rd uint8, ea uint64, lanes int) {
	ch.regs32[rd] = val{}
	for l := 0; l < lanes; l++ {
		ch.regs[rd][l] = ch.load(ea+uint64(8*l), false)
	}
}

func (ch *Channel) storeVec(rs uint8, ea uint64, lanes int) {
	ch.clobberMem(ea, uint64(8*lanes))
	for l := 0; l < lanes; l++ {
		if sv := ch.regs[rs][l]; sv.set {
			ch.putMem(ea+uint64(8*l), sv, false)
		}
	}
}

// clobberMem removes every shadow entry overlapping [ea, ea+size): a
// store of any width or kind invalidates what it partially overwrites.
func (ch *Channel) clobberMem(ea, size uint64) {
	if len(ch.mem) == 0 {
		return
	}
	start, step := ea-7, uint64(1)
	if ea < 7 {
		start = 0
	}
	if ch.unaligned == 0 {
		start, step = (start+3)&^3, 4
	}
	for a := start; a < ea+size; a += step {
		ms, ok := ch.mem[a]
		if !ok {
			continue
		}
		w := uint64(8)
		if ms.single {
			w = 4
		}
		if a+w > ea {
			delete(ch.mem, a)
			if a%4 != 0 {
				ch.unaligned--
			}
		}
	}
}

func (ch *Channel) putMem(ea uint64, v val, single bool) {
	_, ok := ch.mem[ea]
	if !ok && len(ch.mem) >= maxMemShadows {
		ch.memDrops++
		if ch.om != nil {
			ch.om.MemDrops.Inc()
		}
		return
	}
	if !ok && ea%4 != 0 {
		ch.unaligned++
	}
	ch.mem[ea] = memShadow{v: v, single: single}
	if ch.om != nil {
		ch.om.MemShadows.SetMax(int64(len(ch.mem)))
	}
}
