package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/softfloat"
	"repro/internal/trace"
	"repro/internal/workload"
)

// unfiltered is the environment of unfiltered individual mode: every
// event traps and is recorded.
func unfiltered() map[string]string {
	return map[string]string{"FPE_MODE": "individual", "FPE_EXCEPT_LIST": "all"}
}

// quietPool runs the rest of a test on one P with the collector off and
// the block pool empty, so the only blocks the pool hands out are the
// ones the test gave back.
func quietPool(t *testing.T) {
	t.Helper()
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	runtime.GC() // a pool survives one collection in its victim cache
	runtime.GC()
}

// TestAllRecordsCopiesOnce: the first read moves every thread's staged
// records, in Threads order, into one slice, and later reads return
// that slice; records appended after a read are moved on the next one,
// and only they are. NumRecords and Raised read staged and moved
// records alike.
func TestAllRecordsCopiesOnce(t *testing.T) {
	s := NewStore()
	keys := []ThreadKey{{PID: 7, TID: 9}, {PID: 7, TID: 8}} // not in Threads order
	var want [2][]trace.Record
	var raised softfloat.Flags
	fill := func(n int, flag softfloat.Flags) {
		for i, key := range keys {
			tt := s.thread(key)
			for range n + 300*i {
				r := trace.Record{TID: uint32(key.TID), Seq: uint64(len(want[i])), Rip: uint64(key.TID) << 32, Raised: flag}
				if err := tt.append(&r); err != nil {
					t.Fatal(err)
				}
				want[i] = append(want[i], r)
				raised |= r.Raised
			}
		}
	}
	counts := func() {
		t.Helper()
		if n := len(want[0]) + len(want[1]); s.NumRecords() != n {
			t.Errorf("NumRecords = %d, want %d", s.NumRecords(), n)
		}
		if s.Raised() != raised {
			t.Errorf("Raised = %v, want %v", s.Raised(), raised)
		}
	}
	check := func(decoded int) []trace.Record {
		t.Helper()
		counts()
		all, err := s.AllRecords()
		if err != nil {
			t.Fatal(err)
		}
		again, _ := s.AllRecords()
		if &again[0] != &all[0] {
			t.Error("a second AllRecords copied the records again")
		}
		if got := s.Decoded.Load(); got != uint64(decoded) {
			t.Errorf("Decoded = %d, want %d", got, decoded)
		}
		if order := append(slices.Clone(want[1]), want[0]...); !slices.Equal(all, order) {
			t.Error("AllRecords is not every record in Threads order")
		}
		for i, key := range keys {
			recs, err := s.Records(key)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(recs, want[i]) {
				t.Errorf("Records(%v) is not the thread's records", key)
			}
			var enc bytes.Buffer
			w := trace.NewWriter(&enc)
			for j := range recs {
				if err := w.Append(&recs[j]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if raw, err := s.RawTrace(key); err != nil || !bytes.Equal(raw, enc.Bytes()) {
				t.Errorf("RawTrace(%v) is not the encoding of Records (err %v)", key, err)
			}
		}
		counts()
		return all
	}
	fill(2*blockRecords+100, softfloat.FlagInexact)
	all := check(len(want[0]) + len(want[1]))
	fill(blockRecords+1, softfloat.FlagInvalid)
	if grown := check(len(want[0]) + len(want[1])); &grown[0] == &all[0] {
		t.Error("AllRecords missed the records appended after the first read")
	}
}

// TestRecycledBlocksKeepRecords: a read trace gives its blocks back to
// the pool, and the next guest stages its records in them; the first
// trace's records and bytes must not change.
func TestRecycledBlocksKeepRecords(t *testing.T) {
	quietPool(t)
	a, _ := spawnWithEnv(t, buildRounding(5*blockRecords), unfiltered())
	key := a.Threads()[0]
	var aBlocks []*block
	for _, b := range a.traces[key].staged {
		aBlocks = append(aBlocks, (*block)(b[:blockRecords]))
	}
	recs, err := a.Records(key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := a.RawTrace(key)
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, wantRaw := slices.Clone(recs), slices.Clone(raw)

	w, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spawnWithEnv(t, w.Build(workload.SizeSmall), unfiltered())
	reused := 0
	for _, tt := range b.traces {
		for _, blk := range tt.staged {
			if slices.Contains(aBlocks, (*block)(blk[:blockRecords])) {
				reused++
			}
		}
	}
	if reused == 0 && !raceEnabled {
		t.Fatal("the second guest staged none of its records in the first one's blocks")
	}
	if _, err := b.AllRecords(); err != nil {
		t.Fatal(err)
	}

	again, err := a.Records(key)
	if err != nil {
		t.Fatal(err)
	}
	againRaw, err := a.RawTrace(key)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs, wantRecs) || !slices.Equal(again, wantRecs) {
		t.Error("the first guest's records changed when its blocks were reused")
	}
	if !bytes.Equal(againRaw, wantRaw) {
		t.Error("the first guest's trace bytes changed when its blocks were reused")
	}
}

// TestTraceBlocksRecycled pins the trace's allocation: a run whose
// blocks come from the pool, read once, allocates little beyond its
// consolidated records. Without recycling it allocates the records
// twice, once in blocks and once in the slice.
func TestTraceBlocksRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	quietPool(t)
	w, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.SizeSmall)
	run := func() int {
		s, _ := spawnWithEnv(t, prog, unfiltered())
		recs, err := s.AllRecords()
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	run() // stocks the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := run()
	runtime.ReadMemStats(&after)
	records := uint64(n) * trace.RecordSize
	if got := after.TotalAlloc - before.TotalAlloc; got > records*5/4 {
		t.Errorf("a run with %d bytes of records allocated %d bytes, ceiling %d", records, got, records*5/4)
	}
}

// TestReleaseDropsStagedRecords pins Release: the records still staged
// are dropped and their blocks go back to the pool, where the next guest
// stages into them without its records changing; records a read moved
// before the call stay readable; and nothing else the store holds
// changes.
func TestReleaseDropsStagedRecords(t *testing.T) {
	quietPool(t)
	w, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.SizeSmall)
	ref, _ := spawnWithEnv(t, prog, unfiltered())
	refRecs, err := ref.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(refRecs)

	a, _ := spawnWithEnv(t, buildRounding(3*blockRecords), unfiltered())
	key := a.Threads()[0]
	var aBlocks []*block
	for _, b := range a.traces[key].staged {
		aBlocks = append(aBlocks, (*block)(b[:blockRecords]))
	}
	faults, recorded, events, aggs := a.Faults, a.Recorded, a.MonitorEvents(), a.Aggregates()
	a.Release()
	if n := a.NumRecords(); n != 0 {
		t.Errorf("NumRecords = %d after Release, want 0", n)
	}
	if f := a.Raised(); f != 0 {
		t.Errorf("Raised = %v after Release, want none", f)
	}
	if all, err := a.AllRecords(); err != nil || len(all) != 0 {
		t.Errorf("AllRecords = %d records (err %v) after Release, want none", len(all), err)
	}
	if recs, err := a.Records(key); err != nil || len(recs) != 0 {
		t.Errorf("Records(%v) = %d records (err %v) after Release, want none", key, len(recs), err)
	}
	if a.Faults != faults || a.Recorded != recorded || !slices.Equal(a.MonitorEvents(), events) ||
		!slices.Equal(a.Aggregates(), aggs) || a.Decoded.Load() != 0 {
		t.Error("Release changed the store's counters, monitor log or aggregates")
	}

	b, _ := spawnWithEnv(t, prog, unfiltered())
	reused := 0
	for _, tt := range b.traces {
		for _, blk := range tt.staged {
			if slices.Contains(aBlocks, (*block)(blk[:blockRecords])) {
				reused++
			}
		}
	}
	if reused == 0 && !raceEnabled {
		t.Error("the next guest staged none of its records in the released blocks")
	}
	if got, err := b.AllRecords(); err != nil || !slices.Equal(got, want) {
		t.Errorf("the next guest's records changed in the released blocks (err %v)", err)
	}

	// Records a read moved before the call stay; only staged ones go.
	s := NewStore()
	tt := s.thread(ThreadKey{PID: 1, TID: 1})
	var moved []trace.Record
	for i := range 2*blockRecords + 10 {
		flag := softfloat.FlagInexact
		if i >= blockRecords+5 {
			flag = softfloat.FlagInvalid
		}
		r := trace.Record{Seq: uint64(i), Raised: flag}
		if err := tt.append(&r); err != nil {
			t.Fatal(err)
		}
		if i == blockRecords+4 {
			moved, _ = s.AllRecords()
		}
	}
	s.Release()
	if again, _ := s.AllRecords(); len(again) != blockRecords+5 || &again[0] != &moved[0] ||
		s.NumRecords() != blockRecords+5 || s.Raised() != softfloat.FlagInexact {
		t.Errorf("after Release: %d records, %d counted, raised %v; want the %d moved before it, inexact only",
			len(again), s.NumRecords(), s.Raised(), blockRecords+5)
	}
}
