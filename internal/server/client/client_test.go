package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/server"
)

// fastRetry returns a client pointed at url with sub-millisecond
// backoff so tests exercise the retry loop without real sleeps.
func fastRetry(url string) *Client {
	return &Client{
		BaseURL:       url,
		ID:            "test",
		RetryBaseWait: 200 * time.Microsecond,
		RetryMaxWait:  2 * time.Millisecond,
	}
}

func TestRetryAbsorbs429(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"rate limited"}`)) //nolint:errcheck // test
			return
		}
		w.Write([]byte(`{"id":"job-000001","state":"queued"}`)) //nolint:errcheck // test
	}))
	defer srv.Close()
	c := fastRetry(srv.URL)
	resp, err := c.SubmitBlobContext(context.Background(), "x", []byte("clone"), fpspy.Config{})
	if err != nil {
		t.Fatalf("SubmitBlob after 429s: %v", err)
	}
	if resp.ID != "job-000001" {
		t.Fatalf("resp.ID = %q", resp.ID)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("expected 3 attempts, saw %d", n)
	}
}

func TestRetryAbsorbs503Draining(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`)) //nolint:errcheck // test
			return
		}
		w.Write([]byte(`{"id":"job-000002","state":"done","cacheHit":true}`)) //nolint:errcheck // test
	}))
	defer srv.Close()
	c := fastRetry(srv.URL)
	st, err := c.StatusContext(context.Background(), "job-000002")
	if err != nil {
		t.Fatalf("Status through 503: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %q", st.State)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("expected 2 attempts, saw %d", n)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad clone"}`)) //nolint:errcheck // test
	}))
	defer srv.Close()
	c := fastRetry(srv.URL)
	_, err := c.SubmitBlobContext(context.Background(), "x", []byte("clone"), fpspy.Config{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("400 must not be retried; saw %d attempts", n)
	}
}

func TestRetryDisabled(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := fastRetry(srv.URL)
	c.RetryMax = -1
	_, err := c.StatusContext(context.Background(), "job-000001")
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("want RateLimitError surfaced, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("RetryMax<0 must not retry; saw %d attempts", n)
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	// Large max wait so the backoff would honor the 1s hint; the
	// context must cut it short.
	c := &Client{BaseURL: srv.URL, RetryMaxWait: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.StatusContext(ctx, "job-000001")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep was not interrupted", el)
	}
}

func TestEndpointFailover(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"job-000003","state":"queued"}`)) //nolint:errcheck // test
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // now connection-refused
	c := fastRetry(deadURL + ", " + live.URL)
	if got := c.Endpoints(); len(got) != 2 {
		t.Fatalf("Endpoints() = %v", got)
	}
	resp, err := c.SubmitBlobContext(context.Background(), "x", []byte("clone"), fpspy.Config{})
	if err != nil {
		t.Fatalf("SubmitBlob with dead first peer: %v", err)
	}
	if resp.ID != "job-000003" {
		t.Fatalf("resp.ID = %q", resp.ID)
	}
	// The client sticks to the endpoint that answered.
	if ep := c.Endpoints()[c.cur%len(c.Endpoints())]; ep != strings.TrimRight(live.URL, "/") {
		t.Fatalf("sticky endpoint = %q, want %q", ep, live.URL)
	}
}

func TestBackoffWaitHonorsHintAndCap(t *testing.T) {
	base, maxWait := 10*time.Millisecond, 100*time.Millisecond
	for i := 0; i < 50; i++ {
		// The server hint floors the wait when it fits under the cap.
		if w := backoffWait(1, 50*time.Millisecond, base, maxWait); w < 50*time.Millisecond || w > maxWait {
			t.Fatalf("hinted wait %v outside [50ms, %v]", w, maxWait)
		}
		// A hostile hint is clamped to the cap.
		if w := backoffWait(1, time.Hour, base, maxWait); w != maxWait {
			t.Fatalf("hour-long hint produced %v, want cap %v", w, maxWait)
		}
		// Deep attempts saturate at the cap even with shift overflow.
		if w := backoffWait(80, 0, base, maxWait); w <= 0 || w > maxWait {
			t.Fatalf("attempt-80 wait %v outside (0, %v]", w, maxWait)
		}
	}
}

// TestResultStreamAllocation pins what reading a settled job's result
// stream costs the client: under 8 KiB a stream beyond the HTTP exchange
// itself, which a bare GET of the same stream measures (the daemon, the
// server and the transport all allocate in this process). A scanner
// that started from a 64 KiB buffer would cost at least that much for
// lines under 1 KiB.
func TestResultStreamAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race, and net/http pools its buffers")
	}
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown() //nolint:errcheck // test teardown
	})
	b := fpspy.NewProgram("stream")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	c := New(ts.URL, "test")
	resp, err := c.SubmitContext(context.Background(), jobs.Capture("stream", b.Build(), nil, 1<<20), fpspy.Config{Mode: fpspy.ModeIndividual})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID
	if _, err := c.WatchContext(context.Background(), id, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stream := func() {
		if _, err := c.StreamResultContext(context.Background(), id, nil); err != nil {
			t.Fatal(err)
		}
	}
	bare := func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // test
		resp.Body.Close()
	}
	perRead := func(read func()) uint64 {
		const n = 50
		read() // opens the keep-alive connection
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			read()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	base, got := perRead(bare), perRead(stream)
	if got >= base+8<<10 {
		t.Errorf("reading a result stream allocated %d bytes, %d more than a bare GET of it; ceiling 8 KiB more", got, got-base)
	}
}

// TestResultStreamLongLines: a line longer than bufio's 64 KiB default
// still parses, and a line over the 16 MiB cap fails the stream with
// bufio.ErrTooLong instead of growing the buffer without bound.
func TestResultStreamLongLines(t *testing.T) {
	const long = 100 << 10
	var size atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"type":"summary","summary":{"id":"job-000001","name":"`)) //nolint:errcheck // test
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for n := size.Load(); n > 0; n -= int64(len(chunk)) {
			w.Write(chunk[:min(n, int64(len(chunk)))]) //nolint:errcheck // test
		}
		w.Write([]byte(`","records":7}}` + "\n")) //nolint:errcheck // test
	}))
	defer srv.Close()
	c := fastRetry(srv.URL)

	size.Store(long)
	sum, err := c.StreamResultContext(context.Background(), "job-000001", nil)
	if err != nil {
		t.Fatalf("a %d-byte summary line: %v", long, err)
	}
	if len(sum.Name) != long || sum.Records != 7 {
		t.Errorf("summary name of %d bytes and %d records, want %d and 7", len(sum.Name), sum.Records, long)
	}

	size.Store(16 << 20)
	if _, err := c.StreamResultContext(context.Background(), "job-000001", nil); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a summary line over 16 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
