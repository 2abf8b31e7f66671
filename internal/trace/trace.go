// Package trace implements FPSpy's trace formats: fixed-size binary
// individual-mode records designed for bulk analysis (the paper mmap()s
// them into analysis programs), and one-line human-readable
// aggregate-mode records. Records are self-describing and order-free, as
// the paper requires for scalable logging — the only I/O operation needed
// is an append.
package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/softfloat"
)

// RecordSize is the encoded size of one individual-mode record.
const RecordSize = 64

// Record is one individual-mode trace record: the full context of a
// floating point event, as captured by FPSpy's SIGFPE handler.
type Record struct {
	// Time is the event timestamp in cycles.
	Time uint64
	// Rip is the faulting instruction address.
	Rip uint64
	// Rsp is the stack pointer at the fault.
	Rsp uint64
	// InstrWord is the instruction encoding at Rip.
	InstrWord [8]byte
	// MXCSR is the control/status register at the fault.
	MXCSR uint32
	// TID is the faulting thread.
	TID uint32
	// Seq is the per-thread sequence number.
	Seq uint64
	// Event is the delivered (priority-encoded) exception.
	Event softfloat.Flags
	// Raised is the full set of condition codes the instruction set.
	Raised softfloat.Flags
	// Opcode is the decoded instruction form identifier (the analysis
	// scripts decode instruction bytes; the simulator shortcuts that).
	Opcode uint16
}

// Encode serializes the record into buf, which must hold RecordSize
// bytes.
func (r *Record) Encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], r.Time)
	le.PutUint64(buf[8:], r.Rip)
	le.PutUint64(buf[16:], r.Rsp)
	copy(buf[24:32], r.InstrWord[:])
	le.PutUint32(buf[32:], r.MXCSR)
	le.PutUint32(buf[36:], r.TID)
	le.PutUint64(buf[40:], r.Seq)
	le.PutUint32(buf[48:], uint32(r.Event))
	le.PutUint32(buf[52:], uint32(r.Raised))
	le.PutUint16(buf[56:], r.Opcode)
	le.PutUint16(buf[58:], 0)
	le.PutUint32(buf[60:], 0)
}

// Decode deserializes a record from buf.
func (r *Record) Decode(buf []byte) {
	le := binary.LittleEndian
	r.Time = le.Uint64(buf[0:])
	r.Rip = le.Uint64(buf[8:])
	r.Rsp = le.Uint64(buf[16:])
	copy(r.InstrWord[:], buf[24:32])
	r.MXCSR = le.Uint32(buf[32:])
	r.TID = le.Uint32(buf[36:])
	r.Seq = le.Uint64(buf[40:])
	r.Event = softfloat.Flags(le.Uint32(buf[48:]))
	r.Raised = softfloat.Flags(le.Uint32(buf[52:]))
	r.Opcode = le.Uint16(buf[56:])
}

// Decode parses a full trace image into records.
func Decode(data []byte) ([]Record, error) {
	if len(data)%RecordSize != 0 {
		return nil, fmt.Errorf("trace: image size %d not a multiple of %d", len(data), RecordSize)
	}
	recs := make([]Record, len(data)/RecordSize)
	for i := range recs {
		recs[i].Decode(data[i*RecordSize:])
	}
	return recs, nil
}

// Render writes the human-readable form of a record, as produced by the
// paper's decoding scripts.
func (r *Record) Render(mnemonic string) string {
	return fmt.Sprintf("t=%d tid=%d seq=%d rip=%#x rsp=%#x %s event=%v raised=%v mxcsr=%#06x",
		r.Time, r.TID, r.Seq, r.Rip, r.Rsp, mnemonic, r.Event, r.Raised, r.MXCSR)
}

// Aggregate is an aggregate-mode trace record: one line per thread giving
// the sticky condition codes observed over the thread's lifetime.
type Aggregate struct {
	// PID and TID identify the thread.
	PID, TID int
	// Flags is the final sticky condition-code set.
	Flags softfloat.Flags
	// Instructions is the thread's retired instruction count.
	Instructions uint64
	// Aborted marks traces where FPSpy got out of the way mid-run.
	Aborted bool
	// Reason is the typed abort/demotion reason when the record comes
	// from a degraded run ("" for clean runs).
	Reason string
}

// String renders the aggregate record in its human-readable single-line
// form.
func (a Aggregate) String() string {
	status := "complete"
	if a.Aborted {
		status = "aborted"
	}
	s := fmt.Sprintf("pid=%d tid=%d conditions=%v instructions=%d status=%s",
		a.PID, a.TID, a.Flags, a.Instructions, status)
	if a.Reason != "" {
		s += " reason=" + a.Reason
	}
	return s
}
