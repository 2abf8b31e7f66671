package core

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// ThreadKey identifies one traced thread.
type ThreadKey struct {
	// PID and TID identify the thread within the simulated kernel.
	PID, TID int
}

// String renders the key the way FPSpy names trace files.
func (k ThreadKey) String() string { return fmt.Sprintf("%d.%d.fpemon", k.PID, k.TID) }

// Store collects FPSpy's output: one binary individual-mode trace per
// thread and one aggregate record per thread. It stands in for the
// per-thread log files of the real tool.
type Store struct {
	traces     map[ThreadKey]*threadTrace
	sink       func(ThreadKey) io.Writer
	aggregates []trace.Aggregate
	events     []trace.MonitorEvent
	flushErrs  []error
	// shadowSites accumulates per-site shadow attribution rows merged
	// across threads (FPE_SHADOW); nil until the first merge.
	shadowSites map[uint64]analysis.RootCauseSite
	// Faults counts every SIGFPE FPSpy handled (recorded or not).
	Faults uint64
	// Recorded counts records actually written.
	Recorded uint64
	// StepAsides counts processes where FPSpy got out of the way.
	StepAsides int
	// Decoded counts the records Records and AllRecords have decoded,
	// over every call: the work a trace's readers pay for.
	Decoded atomic.Uint64
}

// threadTrace is one thread's individual-mode trace: the writer the spy
// appends through and, unless the store has a sink, the in-memory
// chunks the writer flushes into.
type threadTrace struct {
	w   *trace.Writer
	mem *chunks
}

// chunkBytes is the size of one in-memory trace chunk: 1,024 records.
const chunkBytes = 1024 * trace.RecordSize

// chunks holds an in-memory trace, in the paper's on-disk format, as
// fixed-size chunks that are all full except the last. Growing the trace
// allocates a new chunk and never copies an old one. The trace writer
// flushes whole records, and a chunk holds a whole number of them, so
// no record straddles two chunks.
type chunks [][]byte

// Write appends p to the trace; it never fails.
func (c *chunks) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(*c) == 0 || len((*c)[len(*c)-1]) == chunkBytes {
			*c = append(*c, make([]byte, 0, chunkBytes))
		}
		last := &(*c)[len(*c)-1]
		k := min(len(p), chunkBytes-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	return n, nil
}

// records counts the records the chunks hold.
func (c chunks) records() int {
	n := 0
	for _, b := range c {
		n += len(b) / trace.RecordSize
	}
	return n
}

// decodeInto decodes every record into the front of dst, which holds
// at least c.records() entries, and returns how many it decoded.
func (c chunks) decodeInto(dst []trace.Record) int {
	i := 0
	for _, b := range c {
		for off := 0; off < len(b); off += trace.RecordSize {
			dst[i].Decode(b[off:])
			i++
		}
	}
	return i
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{traces: make(map[ThreadKey]*threadTrace)}
}

// NewStoreWithSink creates a store whose per-thread trace bytes go to
// writers produced by sink instead of in-memory chunks. Used to model
// trace files on failing media; Records/RawTrace return an error for
// sink-backed threads, and Threads does not list them.
func NewStoreWithSink(sink func(ThreadKey) io.Writer) *Store {
	s := NewStore()
	s.sink = sink
	return s
}

// writer returns (creating if needed) the trace writer for a thread.
// The spy keeps it in its thread state, so the map is consulted once
// per thread rather than once per record.
func (s *Store) writer(key ThreadKey) *trace.Writer {
	if tt, ok := s.traces[key]; ok {
		return tt.w
	}
	tt := &threadTrace{}
	if s.sink != nil {
		tt.w = trace.NewWriter(s.sink(key))
	} else {
		tt.mem = &chunks{}
		tt.w = trace.NewWriter(tt.mem)
	}
	s.traces[key] = tt
	return tt.w
}

// recordFlushErr remembers a trace flush failure so the run result can
// surface it instead of dropping records silently.
func (s *Store) recordFlushErr(key ThreadKey, err error) {
	s.flushErrs = append(s.flushErrs, fmt.Errorf("fpspy: flushing trace %v: %w", key, err))
}

// FlushErrs returns trace flush failures recorded during teardown.
func (s *Store) FlushErrs() []error { return s.flushErrs }

// addEvent appends a monitor-log entry.
func (s *Store) addEvent(ev trace.MonitorEvent) { s.events = append(s.events, ev) }

// MonitorEvents returns the monitor log in event order.
func (s *Store) MonitorEvents() []trace.MonitorEvent {
	return append([]trace.MonitorEvent(nil), s.events...)
}

// MonitorLog renders the monitor log in its on-disk text form.
func (s *Store) MonitorLog() string { return trace.RenderMonitorLog(s.events) }

// SignalFights totals, per contested signal, how many registration
// attempts aggressive mode absorbed (one signal-fight event per attempt).
func (s *Store) SignalFights() map[string]uint64 {
	out := map[string]uint64{}
	for _, ev := range s.events {
		if ev.Kind == trace.EventSignalFight {
			out[ev.Signal]++
		}
	}
	return out
}

// mergeShadowSites folds one thread's shadow attribution rows into the
// store (sum/max merge per address, see analysis.MergeRootCauseSite).
func (s *Store) mergeShadowSites(sites []analysis.RootCauseSite) {
	if len(sites) == 0 {
		return
	}
	if s.shadowSites == nil {
		s.shadowSites = make(map[uint64]analysis.RootCauseSite, len(sites))
	}
	for _, site := range sites {
		s.shadowSites[site.Addr] = analysis.MergeRootCauseSite(s.shadowSites[site.Addr], site)
	}
}

// ShadowSites returns the merged shadow attribution rows ordered by
// address (empty when FPE_SHADOW was off or nothing shadow-executed).
func (s *Store) ShadowSites() []analysis.RootCauseSite {
	out := make([]analysis.RootCauseSite, 0, len(s.shadowSites))
	for addr, site := range s.shadowSites {
		site.Addr = addr
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// addAggregate appends a thread's aggregate record.
func (s *Store) addAggregate(a trace.Aggregate) {
	s.aggregates = append(s.aggregates, a)
}

// Aggregates returns all aggregate-mode records, ordered by pid then tid.
func (s *Store) Aggregates() []trace.Aggregate {
	out := append([]trace.Aggregate(nil), s.aggregates...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// Threads lists the threads with in-memory individual-mode traces.
func (s *Store) Threads() []ThreadKey {
	keys := make([]ThreadKey, 0, len(s.traces))
	for k, tt := range s.traces {
		if tt.mem != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PID != keys[j].PID {
			return keys[i].PID < keys[j].PID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// flushed returns one thread's in-memory trace with every appended
// record flushed into it.
func (s *Store) flushed(key ThreadKey) (chunks, error) {
	tt, ok := s.traces[key]
	if !ok {
		return nil, fmt.Errorf("fpspy: no trace for %v", key)
	}
	if tt.mem == nil {
		return nil, fmt.Errorf("fpspy: trace %v went to the store's sink; its records are not kept", key)
	}
	if err := tt.w.Flush(); err != nil {
		return nil, err
	}
	return *tt.mem, nil
}

// Records decodes the trace of one thread.
func (s *Store) Records(key ThreadKey) ([]trace.Record, error) {
	c, err := s.flushed(key)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, c.records())
	s.Decoded.Add(uint64(c.decodeInto(recs)))
	return recs, nil
}

// flushedAll returns every thread's trace, in Threads order, as one
// chunk list.
func (s *Store) flushedAll() (chunks, error) {
	var all chunks
	for _, key := range s.Threads() {
		c, err := s.flushed(key)
		if err != nil {
			return nil, err
		}
		all = append(all, c...)
	}
	return all, nil
}

// AllRecords decodes every thread's trace, in Threads order, into one
// slice sized to the total record count.
func (s *Store) AllRecords() ([]trace.Record, error) {
	all, err := s.flushedAll()
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, all.records())
	s.Decoded.Add(uint64(all.decodeInto(recs)))
	return recs, nil
}

// NumRecords counts every thread's records off the chunks, decoding
// none of them.
func (s *Store) NumRecords() (int, error) {
	all, err := s.flushedAll()
	return all.records(), err
}

// Raised ORs the Raised condition codes of every in-memory record,
// scanning the chunks in place instead of decoding them.
func (s *Store) Raised() softfloat.Flags {
	var f softfloat.Flags
	for _, tt := range s.traces {
		if tt.mem == nil {
			continue
		}
		_ = tt.w.Flush() // flushes into chunks, which never fail a write
		for _, b := range *tt.mem {
			f |= trace.RaisedUnion(b)
		}
	}
	return f
}

// RawTrace returns the encoded bytes of one thread's trace (what would
// be the on-disk file).
func (s *Store) RawTrace(key ThreadKey) ([]byte, error) {
	c, err := s.flushed(key)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 0, c.records()*trace.RecordSize)
	for _, b := range c {
		raw = append(raw, b...)
	}
	return raw, nil
}
