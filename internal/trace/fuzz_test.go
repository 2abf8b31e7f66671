package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode exercises the trace parser against arbitrary images: it
// must never panic, and any image it accepts must round-trip.
func FuzzDecode(f *testing.F) {
	seed := make([]byte, 3*RecordSize)
	for i := range 3 {
		r := Record{Seq: uint64(i), Rip: 0x400000, TID: 9}
		r.Encode(seed[i*RecordSize:])
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, RecordSize-1))
	f.Add(make([]byte, RecordSize+3))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data)
		if err != nil {
			return
		}
		if len(recs) != len(data)/RecordSize {
			t.Fatalf("decoded %d records from %d bytes", len(recs), len(data))
		}
		// Re-encode: must reproduce the accepted image except for the
		// reserved padding bytes, which Encode zeroes.
		for i := range recs {
			var out [RecordSize]byte
			recs[i].Encode(out[:])
			in := data[i*RecordSize : (i+1)*RecordSize]
			// Compare everything below the pad region (bytes 58..64 are
			// reserved and not round-tripped).
			if !bytes.Equal(out[:58], in[:58]) {
				t.Fatalf("record %d did not round trip", i)
			}
		}
	})
}

// FuzzMonLogRoundTrip exercises the monitor-log parser against arbitrary
// text: it must never panic, malformed input must error (not crash), and
// any log it accepts must reach a render/parse fixpoint — re-rendering
// the parsed events and parsing again yields the same events and the
// same text.
func FuzzMonLogRoundTrip(f *testing.F) {
	f.Add(RenderMonitorLog([]MonitorEvent{
		{Time: 12, PID: 3, Kind: EventAbort, From: "individual", To: "detached", Reason: "trap-storm"},
		{Time: 99, PID: 3, TID: 7, Kind: EventReassert, Signal: "SIGFPE", Reason: "mask-stomp"},
		{Time: 120, PID: 3, Kind: EventSignalFight, Signal: "SIGTRAP", Count: 4},
	}))
	f.Add("t=1 pid=2 tid=3 kind=demote from=individual to=aggregate reason=storm\n")
	f.Add("")
	f.Add("\n\n\n")
	f.Add("kind=abort")
	f.Add("t=notanumber kind=abort")
	f.Add("bare-token kind=abort")
	f.Add("t=1 pid=2 unknown=field kind=abort")
	f.Add("t=1 pid=2\n")
	f.Add("kind=a=b count=18446744073709551615")
	f.Add("t=-1 kind=x")

	f.Fuzz(func(t *testing.T, data string) {
		evs, err := ParseMonitorLog([]byte(data))
		if err != nil {
			return
		}
		rendered := RenderMonitorLog(evs)
		evs2, err := ParseMonitorLog([]byte(rendered))
		if err != nil {
			t.Fatalf("accepted log failed to re-parse after render: %v\nrendered:\n%s", err, rendered)
		}
		if !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("render/parse fixpoint violated:\n first: %#v\nsecond: %#v", evs, evs2)
		}
		if again := RenderMonitorLog(evs2); again != rendered {
			t.Fatalf("render not stable:\n first: %q\nsecond: %q", rendered, again)
		}
	})
}
