// Package isa defines the instruction set of the simulated x64-subset
// guest machine: a register-based ISA with integer control flow and the
// SSE/AVX/FMA floating point instruction forms observed by the FPSpy
// paper (its Figure 18 lists the forms encountered across the study).
//
// Instructions are fixed-length (4 address units each) purely for
// addressing simplicity; the paper notes x64's variable-length decoding
// is exactly what its single-step trick avoids, and nothing in this
// reproduction depends on instruction length.
package isa

// Opcode identifies an instruction form.
type Opcode uint16

// OpClass groups opcodes by execution behavior.
type OpClass uint8

const (
	// ClassInt covers integer ALU operations.
	ClassInt OpClass = iota
	// ClassBranch covers control transfer.
	ClassBranch
	// ClassMem covers loads and stores.
	ClassMem
	// ClassFPArith covers one- and two-source floating point arithmetic.
	ClassFPArith
	// ClassFMA covers fused multiply-add forms.
	ClassFMA
	// ClassFPConvert covers conversions.
	ClassFPConvert
	// ClassFPCompare covers ordered/unordered compares and predicates.
	ClassFPCompare
	// ClassFPRound covers explicit round-to-integral forms.
	ClassFPRound
	// ClassFPDot covers dot-product forms (dpps).
	ClassFPDot
	// ClassFPMove covers register/lane moves that never raise flags.
	ClassFPMove
	// ClassMask covers mask-register moves (kmov forms); like FP moves
	// they never raise flags and never touch MXCSR.
	ClassMask
	// ClassSys covers halt, nop, syscalls, and libc calls.
	ClassSys
)

// FPOp is the arithmetic operation of a ClassFPArith opcode.
type FPOp uint8

const (
	// FPAdd through FPSqrt select the arithmetic performed by a
	// ClassFPArith instruction.
	FPAdd FPOp = iota
	FPSub
	FPMul
	FPDiv
	FPSqrt
	FPMin
	FPMax
)

// Precision selects the element type of a floating point instruction.
type Precision uint8

const (
	// F64 is binary64 (double precision).
	F64 Precision = iota
	// F32 is binary32 (single precision).
	F32
)

// FMAVariant distinguishes the fused multiply-add sign combinations.
type FMAVariant uint8

const (
	// FMAdd computes a*b + c.
	FMAdd FMAVariant = iota
	// FMSub computes a*b - c.
	FMSub
	// FNMAdd computes -(a*b) + c.
	FNMAdd
	// FNMSub computes -(a*b) - c.
	FNMSub
)

// NegProduct reports whether the variant negates the product a*b.
func (v FMAVariant) NegProduct() bool { return v == FNMAdd || v == FNMSub }

// NegAddend reports whether the variant negates the addend c.
func (v FMAVariant) NegAddend() bool { return v == FMSub || v == FNMSub }

// ConvertKind identifies a conversion form.
type ConvertKind uint8

const (
	// CvtSD2SS narrows f64 to f32.
	CvtSD2SS ConvertKind = iota
	// CvtSS2SD widens f32 to f64.
	CvtSS2SD
	// CvtSI2SD converts int32 to f64.
	CvtSI2SD
	// CvtSI2SDQ converts int64 to f64.
	CvtSI2SDQ
	// CvtSI2SS converts int32 to f32.
	CvtSI2SS
	// CvtSI2SSQ converts int64 to f32.
	CvtSI2SSQ
	// CvtSD2SI converts f64 to int32 with MXCSR rounding.
	CvtSD2SI
	// CvtTSD2SI converts f64 to int32 with truncation.
	CvtTSD2SI
	// CvtSS2SI converts f32 to int32 with MXCSR rounding.
	CvtSS2SI
	// CvtTSS2SI converts f32 to int32 with truncation.
	CvtTSS2SI
	// CvtTSD2SIQ converts f64 to int64 with truncation.
	CvtTSD2SIQ
	// CvtPS2DQ converts packed f32 lanes to packed int32.
	CvtPS2DQ
)

// OpInfo describes an opcode's static properties.
type OpInfo struct {
	// Name is the x64-style mnemonic, e.g. "addsd" or "vfmaddps".
	Name string
	// Class selects the execution path.
	Class OpClass
	// FP is the arithmetic operation for ClassFPArith.
	FP FPOp
	// Prec is the element precision for floating point classes.
	Prec Precision
	// Lanes is the number of elements processed (1 for scalar, 2/4 for
	// 128-bit pd/ps, 4/8 for 256-bit AVX pd/ps).
	Lanes int
	// VEX marks AVX ("v"-prefixed) encodings.
	VEX bool
	// FMA is the variant for ClassFMA.
	FMA FMAVariant
	// Cvt is the conversion kind for ClassFPConvert.
	Cvt ConvertKind
	// Signaling marks comi (vs ucomi) compare forms.
	Signaling bool
	// Masked marks AVX512-style write-masked forms: the mask register is
	// carried in the instruction's Rs3 field, masked-off lanes neither
	// compute nor raise flags and keep the destination's old contents
	// (merge masking), matching SDE's masking-aware accounting.
	Masked bool
}

var opTable []OpInfo

func register(info OpInfo) Opcode {
	opTable = append(opTable, info)
	return Opcode(len(opTable) - 1)
}

// Info returns the static description of an opcode.
func (o Opcode) Info() *OpInfo { return &opTable[o] }

// String returns the mnemonic.
func (o Opcode) String() string { return opTable[o].Name }

// NumOpcodes returns the number of registered opcodes.
func NumOpcodes() int { return len(opTable) }

// OpcodeByName resolves a mnemonic to its opcode; ok is false for
// unknown names.
func OpcodeByName(name string) (Opcode, bool) {
	for i := range opTable {
		if opTable[i].Name == name {
			return Opcode(i), true
		}
	}
	return 0, false
}

func intOp(name string) Opcode {
	return register(OpInfo{Name: name, Class: ClassInt})
}

func branchOp(name string) Opcode {
	return register(OpInfo{Name: name, Class: ClassBranch})
}

func memOp(name string) Opcode {
	return register(OpInfo{Name: name, Class: ClassMem})
}

func sysOp(name string) Opcode {
	return register(OpInfo{Name: name, Class: ClassSys})
}

func fpArith(name string, op FPOp, prec Precision, lanes int, vex bool) Opcode {
	return register(OpInfo{Name: name, Class: ClassFPArith, FP: op, Prec: prec, Lanes: lanes, VEX: vex})
}

func fmaOp(name string, v FMAVariant, prec Precision, lanes int) Opcode {
	return register(OpInfo{Name: name, Class: ClassFMA, FMA: v, Prec: prec, Lanes: lanes, VEX: true})
}

func cvtOp(name string, kind ConvertKind, vex bool, lanes int) Opcode {
	return register(OpInfo{Name: name, Class: ClassFPConvert, Cvt: kind, VEX: vex, Lanes: lanes})
}

func cmpOp(name string, prec Precision, signaling, vex bool) Opcode {
	return register(OpInfo{Name: name, Class: ClassFPCompare, Prec: prec, Signaling: signaling, VEX: vex, Lanes: 1})
}

func roundOp(name string, prec Precision, lanes int, vex bool) Opcode {
	return register(OpInfo{Name: name, Class: ClassFPRound, Prec: prec, Lanes: lanes, VEX: vex})
}

func fpArithMasked(name string, op FPOp, prec Precision, lanes int) Opcode {
	return register(OpInfo{Name: name, Class: ClassFPArith, FP: op, Prec: prec, Lanes: lanes, VEX: true, Masked: true})
}

func maskOp(name string) Opcode {
	return register(OpInfo{Name: name, Class: ClassMask})
}

// Integer and control opcodes.
var (
	OpNOP   = sysOp("nop")
	OpHLT   = sysOp("hlt")
	OpCALLC = sysOp("callc") // call a libc symbol through the dynamic linker

	OpMOVI = intOp("movi") // rd = imm
	OpMOV  = intOp("mov")  // rd = rs1
	OpADD  = intOp("add")
	OpADDI = intOp("addi")
	OpSUB  = intOp("sub")
	OpMULQ = intOp("mulq")
	OpDIVQ = intOp("divq")
	OpREMQ = intOp("remq")
	OpAND  = intOp("and")
	OpOR   = intOp("or")
	OpXOR  = intOp("xor")
	OpSHLI = intOp("shli")
	OpSHRI = intOp("shri")

	OpJMP  = branchOp("jmp")
	OpBEQ  = branchOp("beq")
	OpBNE  = branchOp("bne")
	OpBLT  = branchOp("blt")
	OpBGE  = branchOp("bge")
	OpBLE  = branchOp("ble")
	OpBGT  = branchOp("bgt")
	OpCALL = branchOp("call")
	OpRET  = branchOp("ret")

	OpLD   = memOp("ld")  // rd = mem64[rs1+disp]
	OpST   = memOp("st")  // mem64[rs1+disp] = rs2
	OpFLD  = memOp("fld") // xd.lane0 = mem64[rs1+disp]
	OpFST  = memOp("fst")
	OpFLDS = memOp("flds") // xd.lane0.lo32 = mem32[rs1+disp]
	OpFSTS = memOp("fsts")
	OpFLDV = memOp("fldv") // xd = mem256[rs1+disp]
	OpFSTV = memOp("fstv")

	// OpLDMXCSR and OpSTMXCSR are the SSE control-register access forms:
	// ldmxcsr replaces the whole %mxcsr from mem32[rs1+disp], stmxcsr
	// stores it. They are the application's direct, libc-free channel to
	// the control state FPSpy depends on — the adversarial path the chaos
	// harness uses to stomp FPSpy's masks from guest code.
	OpLDMXCSR = memOp("ldmxcsr") // mxcsr = mem32[rs1+disp]
	OpSTMXCSR = memOp("stmxcsr") // mem32[rs1+disp] = mxcsr
)

// FP move forms (never raise exceptions, even on denormals).
var (
	OpMOVSD  = register(OpInfo{Name: "movsd", Class: ClassFPMove, Prec: F64, Lanes: 1})
	OpMOVSS  = register(OpInfo{Name: "movss", Class: ClassFPMove, Prec: F32, Lanes: 1})
	OpMOVAPD = register(OpInfo{Name: "movapd", Class: ClassFPMove, Prec: F64, Lanes: 4})
	OpMOVQX  = register(OpInfo{Name: "movq", Class: ClassFPMove, Prec: F64, Lanes: 1})  // xd.lane0 = integer rs1
	OpMOVXQ  = register(OpInfo{Name: "movxq", Class: ClassFPMove, Prec: F64, Lanes: 1}) // rd = xs.lane0
)

// SSE scalar arithmetic.
var (
	OpADDSD  = fpArith("addsd", FPAdd, F64, 1, false)
	OpSUBSD  = fpArith("subsd", FPSub, F64, 1, false)
	OpMULSD  = fpArith("mulsd", FPMul, F64, 1, false)
	OpDIVSD  = fpArith("divsd", FPDiv, F64, 1, false)
	OpSQRTSD = fpArith("sqrtsd", FPSqrt, F64, 1, false)
	OpMINSD  = fpArith("minsd", FPMin, F64, 1, false)
	OpMAXSD  = fpArith("maxsd", FPMax, F64, 1, false)
	OpADDSS  = fpArith("addss", FPAdd, F32, 1, false)
	OpSUBSS  = fpArith("subss", FPSub, F32, 1, false)
	OpMULSS  = fpArith("mulss", FPMul, F32, 1, false)
	OpDIVSS  = fpArith("divss", FPDiv, F32, 1, false)
	OpSQRTSS = fpArith("sqrtss", FPSqrt, F32, 1, false)
	OpMINSS  = fpArith("minss", FPMin, F32, 1, false)
	OpMAXSS  = fpArith("maxss", FPMax, F32, 1, false)
)

// SSE packed (128-bit) arithmetic.
var (
	OpADDPD  = fpArith("addpd", FPAdd, F64, 2, false)
	OpSUBPD  = fpArith("subpd", FPSub, F64, 2, false)
	OpMULPD  = fpArith("mulpd", FPMul, F64, 2, false)
	OpDIVPD  = fpArith("divpd", FPDiv, F64, 2, false)
	OpSQRTPD = fpArith("sqrtpd", FPSqrt, F64, 2, false)
	OpMINPD  = fpArith("minpd", FPMin, F64, 2, false)
	OpMAXPD  = fpArith("maxpd", FPMax, F64, 2, false)
	OpADDPS  = fpArith("addps", FPAdd, F32, 4, false)
	OpSUBPS  = fpArith("subps", FPSub, F32, 4, false)
	OpMULPS  = fpArith("mulps", FPMul, F32, 4, false)
	OpDIVPS  = fpArith("divps", FPDiv, F32, 4, false)
	OpSQRTPS = fpArith("sqrtps", FPSqrt, F32, 4, false)
	OpMINPS  = fpArith("minps", FPMin, F32, 4, false)
	OpMAXPS  = fpArith("maxps", FPMax, F32, 4, false)
)

// AVX (256-bit packed, plus VEX scalar) arithmetic — the forms GROMACS's
// kernels lean on in the paper.
var (
	OpVADDPD  = fpArith("vaddpd", FPAdd, F64, 4, true)
	OpVSUBPD  = fpArith("vsubpd", FPSub, F64, 4, true)
	OpVMULPD  = fpArith("vmulpd", FPMul, F64, 4, true)
	OpVDIVPD  = fpArith("vdivpd", FPDiv, F64, 4, true)
	OpVADDPS  = fpArith("vaddps", FPAdd, F32, 8, true)
	OpVSUBPS  = fpArith("vsubps", FPSub, F32, 8, true)
	OpVMULPS  = fpArith("vmulps", FPMul, F32, 8, true)
	OpVDIVPS  = fpArith("vdivps", FPDiv, F32, 8, true)
	OpVADDSS  = fpArith("vaddss", FPAdd, F32, 1, true)
	OpVSUBSS  = fpArith("vsubss", FPSub, F32, 1, true)
	OpVMULSS  = fpArith("vmulss", FPMul, F32, 1, true)
	OpVDIVSS  = fpArith("vdivss", FPDiv, F32, 1, true)
	OpVSQRTSS = fpArith("vsqrtss", FPSqrt, F32, 1, true)
	OpVSQRTSD = fpArith("vsqrtsd", FPSqrt, F64, 1, true)
	OpVADDSD  = fpArith("vaddsd", FPAdd, F64, 1, true)
	OpVSUBSD  = fpArith("vsubsd", FPSub, F64, 1, true)
	OpVMULSD  = fpArith("vmulsd", FPMul, F64, 1, true)
	OpVDIVSD  = fpArith("vdivsd", FPDiv, F64, 1, true)
)

// FMA forms.
var (
	OpVFMADDSD  = fmaOp("vfmaddsd", FMAdd, F64, 1)
	OpVFMADDSS  = fmaOp("vfmaddss", FMAdd, F32, 1)
	OpVFMADDPD  = fmaOp("vfmaddpd", FMAdd, F64, 4)
	OpVFMADDPS  = fmaOp("vfmaddps", FMAdd, F32, 8)
	OpVFMSUBSS  = fmaOp("vfmsubss", FMSub, F32, 1)
	OpVFMSUBPS  = fmaOp("vfmsubps", FMSub, F32, 8)
	OpVFNMADDSS = fmaOp("vfnmaddss", FNMAdd, F32, 1)
	OpVFNMADDPS = fmaOp("vfnmaddps", FNMAdd, F32, 8)
	OpVFNMSUBSD = fmaOp("vfnmsubsd", FNMSub, F64, 1)
)

// Conversions.
var (
	OpCVTSD2SS   = cvtOp("cvtsd2ss", CvtSD2SS, false, 1)
	OpCVTSS2SD   = cvtOp("cvtss2sd", CvtSS2SD, false, 1)
	OpCVTSI2SD   = cvtOp("cvtsi2sd", CvtSI2SD, false, 1)
	OpCVTSI2SDQ  = cvtOp("cvtsi2sdq", CvtSI2SDQ, false, 1)
	OpCVTSI2SS   = cvtOp("cvtsi2ss", CvtSI2SS, false, 1)
	OpCVTSD2SI   = cvtOp("cvtsd2si", CvtSD2SI, false, 1)
	OpCVTTSD2SI  = cvtOp("cvttsd2si", CvtTSD2SI, false, 1)
	OpCVTSS2SI   = cvtOp("cvtss2si", CvtSS2SI, false, 1)
	OpCVTTSS2SI  = cvtOp("cvttss2si", CvtTSS2SI, false, 1)
	OpCVTTSD2SIQ = cvtOp("cvttsd2siq", CvtTSD2SIQ, false, 1)
	OpVCVTSD2SS  = cvtOp("vcvtsd2ss", CvtSD2SS, true, 1)
	OpVCVTTSS2SI = cvtOp("vcvttss2si", CvtTSS2SI, true, 1)
	OpVCVTPS2DQ  = cvtOp("vcvtps2dq", CvtPS2DQ, true, 8)
)

// Compares.
var (
	OpUCOMISD  = cmpOp("ucomisd", F64, false, false)
	OpUCOMISS  = cmpOp("ucomiss", F32, false, false)
	OpCOMISD   = cmpOp("comisd", F64, true, false)
	OpCOMISS   = cmpOp("comiss", F32, true, false)
	OpVUCOMISS = cmpOp("vucomiss", F32, false, true)
	OpCMPSD    = register(OpInfo{Name: "cmpsd", Class: ClassFPCompare, Prec: F64, Lanes: 1})
	OpCMPSS    = register(OpInfo{Name: "cmpss", Class: ClassFPCompare, Prec: F32, Lanes: 1})
)

// Round-to-integral forms.
var (
	OpROUNDSD  = roundOp("roundsd", F64, 1, false)
	OpROUNDSS  = roundOp("roundss", F32, 1, false)
	OpROUNDPD  = roundOp("roundpd", F64, 2, false)
	OpROUNDPS  = roundOp("roundps", F32, 4, false)
	OpVROUNDPS = roundOp("vroundps", F32, 8, true)
)

// Dot product.
var (
	OpVDPPS = register(OpInfo{Name: "vdpps", Class: ClassFPDot, Prec: F32, Lanes: 8, VEX: true})
	OpDPPS  = register(OpInfo{Name: "dpps", Class: ClassFPDot, Prec: F32, Lanes: 4})
)

// AVX512-shaped 512-bit packed arithmetic ("z" suffix: zmm-width). The
// paper's study predates AVX512-heavy builds, but SDE's FLOP accounting
// (which these counters mirror) is defined in terms of these widths and
// their write masks, so the batch path models them: 8 f64 lanes or 16
// f32 lanes per instruction.
var (
	OpVADDPDZ  = fpArith("vaddpdz", FPAdd, F64, 8, true)
	OpVSUBPDZ  = fpArith("vsubpdz", FPSub, F64, 8, true)
	OpVMULPDZ  = fpArith("vmulpdz", FPMul, F64, 8, true)
	OpVDIVPDZ  = fpArith("vdivpdz", FPDiv, F64, 8, true)
	OpVSQRTPDZ = fpArith("vsqrtpdz", FPSqrt, F64, 8, true)
	OpVMINPDZ  = fpArith("vminpdz", FPMin, F64, 8, true)
	OpVMAXPDZ  = fpArith("vmaxpdz", FPMax, F64, 8, true)
	OpVADDPSZ  = fpArith("vaddpsz", FPAdd, F32, 16, true)
	OpVSUBPSZ  = fpArith("vsubpsz", FPSub, F32, 16, true)
	OpVMULPSZ  = fpArith("vmulpsz", FPMul, F32, 16, true)
	OpVDIVPSZ  = fpArith("vdivpsz", FPDiv, F32, 16, true)
	OpVSQRTPSZ = fpArith("vsqrtpsz", FPSqrt, F32, 16, true)
	OpVMINPSZ  = fpArith("vminpsz", FPMin, F32, 16, true)
	OpVMAXPSZ  = fpArith("vmaxpsz", FPMax, F32, 16, true)

	OpVFMADDPDZ = fmaOp("vfmaddpdz", FMAdd, F64, 8)
	OpVFMADDPSZ = fmaOp("vfmaddpsz", FMAdd, F32, 16)
)

// Write-masked 512-bit arithmetic ("k" suffix). The mask register rides
// in Rs3 (unused by two-source arithmetic), so the 4-byte encoding and
// its round-trip properties are unchanged. Masked-off lanes neither
// compute nor raise exceptions and keep the old destination lane.
var (
	OpVADDPDKZ  = fpArithMasked("vaddpdzk", FPAdd, F64, 8)
	OpVSUBPDKZ  = fpArithMasked("vsubpdzk", FPSub, F64, 8)
	OpVMULPDKZ  = fpArithMasked("vmulpdzk", FPMul, F64, 8)
	OpVDIVPDKZ  = fpArithMasked("vdivpdzk", FPDiv, F64, 8)
	OpVSQRTPDKZ = fpArithMasked("vsqrtpdzk", FPSqrt, F64, 8)
	OpVMINPDKZ  = fpArithMasked("vminpdzk", FPMin, F64, 8)
	OpVMAXPDKZ  = fpArithMasked("vmaxpdzk", FPMax, F64, 8)
	OpVADDPSKZ  = fpArithMasked("vaddpszk", FPAdd, F32, 16)
	OpVSUBPSKZ  = fpArithMasked("vsubpszk", FPSub, F32, 16)
	OpVMULPSKZ  = fpArithMasked("vmulpszk", FPMul, F32, 16)
	OpVDIVPSKZ  = fpArithMasked("vdivpszk", FPDiv, F32, 16)
	OpVSQRTPSKZ = fpArithMasked("vsqrtpszk", FPSqrt, F32, 16)
	OpVMINPSKZ  = fpArithMasked("vminpszk", FPMin, F32, 16)
	OpVMAXPSKZ  = fpArithMasked("vmaxpszk", FPMax, F32, 16)
)

// 512-bit vector load/store and mask-register moves.
var (
	OpFLDVZ = memOp("fldvz") // xd = mem512[rs1+disp]
	OpFSTVZ = memOp("fstvz") // mem512[rs1+disp] = xs2

	OpKMOVQ  = maskOp("kmovq")  // kd = rs1
	OpKMOVRQ = maskOp("kmovrq") // rd = ks1
)
