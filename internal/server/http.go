package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/study"
)

// Wire types of the fpspyd HTTP/JSON API. The client package and fpctl
// share them.

// SubmitRequest is the POST /v1/jobs body. Clone is the clone's
// jobs.Encode bytes, which encoding/json carries as base64.
type SubmitRequest struct {
	// Name optionally overrides the clone's submission name.
	Name string `json:"name,omitempty"`
	// Clone is the encoded submission clone (base64 on the wire).
	Clone []byte `json:"clone"`
	// Config is the FPSpy configuration to replay under.
	Config fpspy.Config `json:"config"`
}

// ShadowSubmitRequest is the POST /v1/shadowjobs body: a job submission
// that runs with the shadow-precision channel attached and streams the
// ranked root-cause attribution alongside the usual result.
type ShadowSubmitRequest struct {
	// Name optionally overrides the clone's submission name.
	Name string `json:"name,omitempty"`
	// Clone is the encoded submission clone (base64 on the wire).
	Clone []byte `json:"clone"`
	// Config is the FPSpy configuration to replay under.
	Config fpspy.Config `json:"config"`
	// Prec is the shadow precision in mantissa bits; 0 means
	// Config.ShadowPrec, or study.DefaultShadowPrec if that is also 0.
	Prec uint64 `json:"prec,omitempty"`
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cacheHit"`
}

// StatusResponse answers GET /v1/jobs/{id}.
type StatusResponse struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Client   string `json:"client"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cacheHit"`
	Key      string `json:"key"`
	Error    string `json:"error,omitempty"`
}

// ResultLine is one NDJSON line of a streamed result: every monitor-log
// event in order, then (for shadow jobs) the ranked attribution sites,
// then exactly one summary line.
type ResultLine struct {
	// Type is "event", "site", or "summary".
	Type string `json:"type"`
	// Line is the monitor-log line in trace.ParseMonitorLog format
	// (event lines only).
	Line string `json:"line,omitempty"`
	// Site is one attributed instruction site, in rank order (site
	// lines only; shadow jobs).
	Site *analysis.RootCauseSite `json:"site,omitempty"`
	// Summary closes the stream (summary line only).
	Summary *Summary `json:"summary,omitempty"`
}

// Summary is the scalar tail of a result stream.
type Summary struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	CacheHit   bool   `json:"cacheHit"`
	Steps      uint64 `json:"steps"`
	WallCycles uint64 `json:"wallCycles"`
	ExitCode   int    `json:"exitCode"`
	EventSet   uint64 `json:"eventSet"`
	Records    int    `json:"records"`
	Aggregates int    `json:"aggregates"`
	Events     int    `json:"events"`
	// AccumFingerprint is the accumulation-tree fingerprint for probe
	// jobs (see Outcome.AccumFingerprint); empty for other workloads.
	AccumFingerprint string `json:"accumFingerprint,omitempty"`
	// Shadow* summarize the attribution report for shadow jobs
	// (all zero for ordinary jobs): the precision the pass ran at, the
	// attributed site count, the 99%-error-coverage prefix length, the
	// shadow-executed op count, the total introduced error in fractional
	// ULPs, and the largest integer-ULP divergence observed.
	ShadowPrec      uint64  `json:"shadowPrec,omitempty"`
	ShadowSites     int     `json:"shadowSites,omitempty"`
	ShadowSites99   int     `json:"shadowSites99,omitempty"`
	ShadowOps       uint64  `json:"shadowOps,omitempty"`
	ShadowLocalUlps float64 `json:"shadowLocalUlps,omitempty"`
	ShadowMaxUlps   uint64  `json:"shadowMaxUlps,omitempty"`
}

// FigureResponse answers GET /v1/figures?id=N.
type FigureResponse struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// maxSubmitBytes bounds a submission body (program image + env). Large
// enough for any workload clone in the suite, small enough that a
// hostile client cannot balloon the daemon.
const maxSubmitBytes = 64 << 20

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit(false))
	mux.HandleFunc("POST /v1/shadowjobs", s.handleSubmit(true))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/figures", s.handleFigures)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
}

// ServeHTTP makes the daemon mountable anywhere an http.Handler goes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ClientHeader identifies the submitting client for rate limiting and
// accounting. Absent the header, the client is keyed by remote host.
const ClientHeader = "X-FPSpy-Client"

func clientID(r *http.Request) string {
	if c := r.Header.Get(ClientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON emits one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// at least 1 so clients never busy-spin.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// observeNS records a request latency when observability is on.
func (s *Server) observeNS(h *obs.Histogram, start time.Time) {
	if s.obs != nil {
		h.Observe(uint64(time.Since(start).Nanoseconds()))
	}
}

// handleSubmit serves POST /v1/jobs and, with shadow set, POST
// /v1/shadowjobs: the same submission flow with the shadow-precision
// channel forced on. The precision is folded into the config before
// the cache key is computed, so a shadow job and the plain job over the
// same clone are distinct cache entries (and distinct precisions are
// too), while resubmitting the same shadow job — to any peer in a
// cluster — hits the cache. Every client submission, on a lone daemon
// or a cluster node, is admitted here.
func (s *Server) handleSubmit(shadow bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sv := s.obs.ServerMetricsOrNil()
		if sv != nil {
			defer s.observeNS(&sv.SubmitNS, start)
		}

		client := clientID(r)
		if ok, wait := s.lim.allow(client); !ok {
			if sv != nil {
				sv.RateLimited.Inc()
			}
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			writeError(w, http.StatusTooManyRequests, "client %s rate limited", client)
			return
		}

		// The /v1/jobs body is the shadow body without Prec.
		var req ShadowSubmitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad submission body: %v", err)
			return
		}
		cfg := req.Config
		if shadow {
			var err error
			if cfg, err = NormalizeShadowConfig(cfg, req.Prec); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}

		rec, err := s.submit(client, req.Name, req.Clone, cfg, true)
		switch {
		case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.mu.Lock()
		resp := SubmitResponse{ID: rec.id, State: rec.state, CacheHit: rec.cacheHit}
		s.mu.Unlock()
		status := http.StatusAccepted
		if resp.State == StateDone || resp.State == StateFailed {
			status = http.StatusOK
		}
		writeJSON(w, status, resp)
	}
}

// NormalizeShadowConfig resolves a shadow submission's effective config:
// an explicit request precision wins, then Config.ShadowPrec, then
// study.DefaultShadowPrec. Normalizing before the cache key is computed
// is what makes "default precision" and "explicit 113" the same cache
// entry, and what a client computes to find the entry's owner.
func NormalizeShadowConfig(cfg fpspy.Config, prec uint64) (fpspy.Config, error) {
	if prec != 0 {
		cfg.ShadowPrec = prec
	}
	if cfg.ShadowPrec == 0 {
		cfg.ShadowPrec = study.DefaultShadowPrec
	}
	if cfg.ShadowPrec < fpspy.MinShadowPrec || cfg.ShadowPrec > fpspy.MaxShadowPrec {
		return cfg, fmt.Errorf("shadow precision %d out of range [%d,%d]",
			cfg.ShadowPrec, fpspy.MinShadowPrec, fpspy.MaxShadowPrec)
	}
	return cfg, nil
}

// lookup fetches a job record and a snapshot of its mutable state.
func (s *Server) lookup(id string) (*jobRec, StatusResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, StatusResponse{}, false
	}
	return rec, StatusResponse{
		ID: rec.id, Name: rec.name, Client: rec.client, State: rec.state,
		CacheHit: rec.cacheHit, Key: rec.key, Error: rec.errs,
	}, true
}

// writeMissing answers a job ID with no record: 410 Gone when this
// daemon issued it and has since evicted its settled record, 404 when
// it never issued it.
func (s *Server) writeMissing(w http.ResponseWriter, id string) {
	s.mu.Lock()
	gone := jobSeq(id) > 0 && jobSeq(id) <= s.seq
	s.mu.Unlock()
	if gone {
		writeError(w, http.StatusGone, "job %q evicted: the daemon keeps the last %d settled jobs", id, tableBound)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			s.observeNS(&sv.StatusNS, start)
		}
	}()
	_, st, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeMissing(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			s.observeNS(&sv.ResultNS, start)
		}
	}()
	rec, _, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeMissing(w, r.PathValue("id"))
		return
	}

	// Block until the pass settles. A drain can strand a queued job
	// (its clone is persisted for the next daemon incarnation), so the
	// wait also unblocks on stop.
	select {
	case <-rec.entry.done:
	case <-r.Context().Done():
		return
	case <-s.stopc:
		s.mu.Lock()
		settled := rec.entry.settled
		s.mu.Unlock()
		if !settled {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "job %s interrupted by drain; resubmit or retry after restart", rec.id)
			return
		}
	}

	s.mu.Lock()
	e := rec.entry
	out, eErr := e.out, e.err
	cacheHit := rec.cacheHit
	s.mu.Unlock()
	if eErr != nil {
		writeError(w, http.StatusInternalServerError, "job %s failed: %v", rec.id, eErr)
		return
	}

	writeResultStream(w, rec.id, rec.name, cacheHit, out)
}

// writeResultStream renders one settled outcome as the NDJSON result
// stream: every monitor-log event line in order, then (for shadow jobs)
// the ranked sites, then exactly one summary line.
func writeResultStream(w http.ResponseWriter, id, name string, cacheHit bool, out *Outcome) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, ev := range out.Events {
		if err := enc.Encode(ResultLine{Type: "event", Line: ev.String()}); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum := &Summary{
		ID: id, Name: name, CacheHit: cacheHit,
		Steps: out.Steps, WallCycles: out.WallCycles, ExitCode: out.ExitCode,
		EventSet: out.EventSet, Records: out.Records, Aggregates: out.Aggregates,
		Events: len(out.Events), AccumFingerprint: out.AccumFingerprint,
	}
	if rc := out.RootCause; rc != nil {
		for i := range rc.Sites {
			if err := enc.Encode(ResultLine{Type: "site", Site: &rc.Sites[i]}); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		sum.ShadowPrec = rc.Prec
		sum.ShadowSites = len(rc.Sites)
		sum.ShadowSites99 = rc.Sites99
		sum.ShadowOps = rc.TotalOps
		sum.ShadowLocalUlps = rc.TotalLocalUlps
		sum.ShadowMaxUlps = rc.MaxUlps
	}
	enc.Encode(ResultLine{Type: "summary", Summary: sum}) //nolint:errcheck // client gone
}

// figureGens maps figure IDs to their generators on the shared study.
func (s *Server) figureGens() map[string]func() (*study.Table, error) {
	st := s.study
	return map[string]func() (*study.Table, error){
		"6": st.Figure6, "7": st.Figure7, "8": st.Figure8, "9": st.Figure9,
		"10": st.Figure10, "11": st.Figure11, "12": st.Figure12,
		"13": st.Figure13, "14": st.Figure14, "15": st.Figure15,
		"16": st.Figure16, "17": st.Figure17, "18": st.Figure18,
		"19": st.Figure19, "s6": st.Section6,
	}
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			s.observeNS(&sv.FiguresNS, start)
		}
	}()
	gens := s.figureGens()
	id := r.URL.Query().Get("id")
	if id == "" {
		ids := make([]string, 0, len(gens))
		for k := range gens {
			ids = append(ids, k)
		}
		sort.Slice(ids, func(i, j int) bool {
			if len(ids[i]) != len(ids[j]) {
				return len(ids[i]) < len(ids[j])
			}
			return ids[i] < ids[j]
		})
		writeJSON(w, http.StatusOK, map[string][]string{"figures": ids})
		return
	}
	gen, ok := gens[id]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown figure %q", id)
		return
	}
	t, err := gen()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "figure %s: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, FigureResponse{
		ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.obs.Snapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// HealthStatus values served by /healthz. A draining daemon reports
// StatusDraining with 503 so ring health probes and load balancers stop
// routing new work to it without treating it as dead: its in-flight
// passes are completing and its queue is persisting.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
)

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": StatusDraining})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": StatusOK})
}
