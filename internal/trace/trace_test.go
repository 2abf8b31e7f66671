package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/softfloat"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(time, rip, rsp, seq uint64, mx, tid uint32, op uint16, ev, raised uint8) bool {
		in := Record{
			Time: time, Rip: rip, Rsp: rsp, Seq: seq,
			MXCSR: mx, TID: tid, Opcode: op,
			Event:  softfloat.Flags(ev) & 0x3F,
			Raised: softfloat.Flags(raised) & 0x3F,
		}
		copy(in.InstrWord[:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
		var buf [RecordSize]byte
		in.Encode(buf[:])
		var out Record
		out.Decode(buf[:])
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordLayout pins the .fpemon byte layout: one record's exact 64
// bytes, field by field, little-endian, with the reserved tail zeroed.
// Every byte of every field differs, so a moved, narrowed or reordered
// field changes the image.
func TestRecordLayout(t *testing.T) {
	r := Record{
		Time:      0x0807060504030201,
		Rip:       0x1817161514131211,
		Rsp:       0x2827262524232221,
		InstrWord: [8]byte{0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38},
		MXCSR:     0x44434241,
		TID:       0x48474645,
		Seq:       0x5857565554535251,
		Event:     0x64636261,
		Raised:    0x68676665,
		Opcode:    0x7271,
	}
	want := []byte{
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // 0: Time
		0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // 8: Rip
		0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, // 16: Rsp
		0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, // 24: InstrWord
		0x41, 0x42, 0x43, 0x44, // 32: MXCSR
		0x45, 0x46, 0x47, 0x48, // 36: TID
		0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, // 40: Seq
		0x61, 0x62, 0x63, 0x64, // 48: Event
		0x65, 0x66, 0x67, 0x68, // 52: Raised
		0x71, 0x72, // 56: Opcode
		0, 0, 0, 0, 0, 0, // 58: reserved
	}
	if len(want) != RecordSize {
		t.Fatalf("the pinned image is %d bytes, RecordSize is %d", len(want), RecordSize)
	}
	got := bytes.Repeat([]byte{0xFF}, RecordSize) // Encode must write the reserved tail too
	r.Encode(got)
	for off := range want {
		if got[off] != want[off] {
			t.Errorf("byte %d = %#02x, want %#02x", off, got[off], want[off])
		}
	}
	var back Record
	back.Decode(want)
	if back != r {
		t.Errorf("Decode of the pinned image = %+v, want %+v", back, r)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, err := Decode(make([]byte, RecordSize+1)); err == nil {
		t.Error("no error for truncated image")
	}
}

func TestAggregateString(t *testing.T) {
	a := Aggregate{PID: 10, TID: 20, Flags: softfloat.FlagInexact | softfloat.FlagInvalid, Instructions: 5}
	s := a.String()
	if s == "" || a.Aborted {
		t.Fatal("bad aggregate")
	}
	b := Aggregate{Aborted: true}
	if b.String() == s {
		t.Error("aborted not distinguished")
	}
}

func TestRecordRender(t *testing.T) {
	r := Record{Time: 5, TID: 7, Seq: 2, Rip: 0x400010, Rsp: 0xFF00,
		Event: softfloat.FlagDivideByZero, Raised: softfloat.FlagDivideByZero | softfloat.FlagInexact}
	s := r.Render("divsd")
	for _, want := range []string{"divsd", "tid=7", "rip=0x400010", "event=ZE", "raised=ZE|PE"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}
