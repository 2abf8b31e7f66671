package core

import (
	"fmt"
	"sort"
	"sync"
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

// Store collects FPSpy's output: one individual-mode trace per thread
// and one aggregate record per thread. It stands in for the per-thread
// log files of the real tool.
type Store struct {
	traces map[ThreadKey]*threadTrace
	// all is the consolidated trace: every record, in Threads order,
	// once a reader has asked for them; nil until then, and reset when a
	// thread's trace is created.
	all        []trace.Record
	aggregates []trace.Aggregate
	events     []trace.MonitorEvent
	// shadowSites accumulates per-site shadow attribution rows merged
	// across threads (FPE_SHADOW); nil until the first merge.
	shadowSites map[uint64]analysis.RootCauseSite
	// Faults counts every SIGFPE FPSpy handled (recorded or not).
	Faults uint64
	// Recorded counts records actually written.
	Recorded uint64
	// StepAsides counts processes where FPSpy got out of the way.
	StepAsides int
	// Decoded counts the records readers have moved out of the staging
	// blocks into the consolidated trace, over every call: the work a
	// trace's readers pay for. A record is moved once.
	Decoded atomic.Uint64
}

// threadTrace is one thread's individual-mode trace. It stages records
// in pooled blocks until the first read moves them into the store's
// consolidated trace, of which recs is this thread's part.
type threadTrace struct {
	staged [][]trace.Record
	recs   []trace.Record
}

// blockRecords is the size of one staging block.
const blockRecords = 1024

// block is a staging block's storage.
type block [blockRecords]trace.Record

// blockPool recycles staging blocks: a consolidated trace gives its
// blocks back, and the next trace stages into them.
var blockPool = sync.Pool{New: func() any { return new(block) }}

// append adds one record to the thread's trace.
func (tt *threadTrace) append(r *trace.Record) {
	n := len(tt.staged)
	if n == 0 || len(tt.staged[n-1]) == blockRecords {
		tt.staged = append(tt.staged, blockPool.Get().(*block)[:0])
		n++
	}
	tt.staged[n-1] = append(tt.staged[n-1], *r)
}

// count counts the thread's records, staged or not.
func (tt *threadTrace) count() int {
	n := len(tt.recs)
	for _, b := range tt.staged {
		n += len(b)
	}
	return n
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{traces: make(map[ThreadKey]*threadTrace)}
}

// thread returns (creating if needed) a thread's trace. The spy keeps
// it in its thread state, so the map is consulted once per thread
// rather than once per record.
func (s *Store) thread(key ThreadKey) *threadTrace {
	if tt, ok := s.traces[key]; ok {
		return tt
	}
	tt := &threadTrace{}
	s.traces[key] = tt
	s.all = nil
	return tt
}

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

// Threads lists the threads with individual-mode traces.
func (s *Store) Threads() []ThreadKey {
	keys := make([]ThreadKey, 0, len(s.traces))
	for k := range s.traces {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PID != keys[j].PID {
			return keys[i].PID < keys[j].PID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// AllRecords returns every record, in Threads order. The first call
// copies each thread's staged records into one slice, which becomes the
// store's trace, and gives the blocks back to the pool; later calls
// copy nothing unless records were appended since. The slice is shared
// with the store: callers must not modify it.
func (s *Store) AllRecords() []trace.Record {
	n, staged := 0, s.all == nil
	for _, tt := range s.traces {
		n += tt.count()
		staged = staged || len(tt.staged) > 0
	}
	if !staged {
		return s.all
	}
	all := make([]trace.Record, 0, n)
	for _, key := range s.Threads() {
		tt := s.traces[key]
		start := len(all)
		all = append(all, tt.recs...)
		for _, b := range tt.staged {
			all = append(all, b...)
			s.Decoded.Add(uint64(len(b)))
			blockPool.Put((*block)(b[:blockRecords]))
		}
		tt.staged = nil
		tt.recs = all[start:len(all):len(all)]
	}
	s.all = all
	return all
}

// Records returns one thread's records: its part of AllRecords, shared
// with the store like the whole. Only a key with no trace is an error.
func (s *Store) Records(key ThreadKey) ([]trace.Record, error) {
	tt, ok := s.traces[key]
	if !ok {
		return nil, fmt.Errorf("fpspy: no trace for %v", key)
	}
	s.AllRecords()
	return tt.recs, nil
}

// Release is for a reader done with the store that never read its
// trace: it drops the records still staged and gives their blocks back
// to the pool. Records an earlier read moved stay where they are, and
// afterwards NumRecords, Raised, AllRecords and Records see only them.
// Counters, aggregates, the monitor log and shadow sites are kept.
func (s *Store) Release() {
	for _, tt := range s.traces {
		for _, b := range tt.staged {
			blockPool.Put((*block)(b[:blockRecords]))
		}
		tt.staged = nil
	}
}

// NumRecords counts every record without copying any.
func (s *Store) NumRecords() int {
	n := 0
	for _, tt := range s.traces {
		n += tt.count()
	}
	return n
}

// Raised ORs the Raised condition codes of every record, reading them
// in place.
func (s *Store) Raised() softfloat.Flags {
	var f softfloat.Flags
	or := func(recs []trace.Record) {
		for i := range recs {
			f |= recs[i].Raised
		}
	}
	for _, tt := range s.traces {
		or(tt.recs)
		for _, b := range tt.staged {
			or(b)
		}
	}
	return f
}

// RawTrace returns the encoded bytes of one thread's trace: its
// .fpemon file. Like Records, only a key with no trace is an error.
func (s *Store) RawTrace(key ThreadKey) ([]byte, error) {
	recs, err := s.Records(key)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, len(recs)*trace.RecordSize)
	for i := range recs {
		recs[i].Encode(raw[i*trace.RecordSize:])
	}
	return raw, nil
}
