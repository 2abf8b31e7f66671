package server_test

// End-to-end accumulation-fingerprint propagation through the daemon:
// a probe clone submitted over HTTP must come back with the same
// canonical tree fingerprint a direct in-process run recovers, and the
// fingerprint must survive the content-addressed cache. This is the
// fpspyd-local leg of the reproducibility matrix (the cluster-routed
// leg lives in internal/cluster).

import (
	"testing"

	fpspy "repro"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/study"
	"repro/internal/workload"
)

func probeJob(t testing.TB, kind workload.ProbeKind) (*jobs.Job, *workload.Probe) {
	t.Helper()
	probe, err := workload.BuildProbe(workload.DefaultProbeSpec(kind, workload.SizeSmall))
	if err != nil {
		t.Fatal(err)
	}
	return jobs.Capture(probe.Prog.Name, probe.Prog, nil, 4<<20), probe
}

func TestE2EProbeFingerprintInSummary(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 2})
	cfg := study.ProbeConfig()

	job, probe := probeJob(t, workload.ProbeBlocked)
	c := client.New(ts.URL, "probe-client")
	resp, err := c.Submit(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := probe.Expected.Fingerprint()
	if res.Summary.AccumFingerprint != want {
		t.Fatalf("summary fingerprint %q, want %q", res.Summary.AccumFingerprint, want)
	}
	if n := decodedRecords(t, job, cfg); res.Summary.Records != n || n == 0 {
		t.Errorf("summary records = %d, want %d decoded", res.Summary.Records, n)
	}

	// The cached resubmission carries the identical fingerprint.
	resp2, err := c.Submit(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("identical resubmission missed the cache")
	}
	res2, err := c.Result(resp2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.AccumFingerprint != want {
		t.Fatalf("cached fingerprint %q, want %q", res2.Summary.AccumFingerprint, want)
	}

	// The negative control's fingerprint must differ from its claim —
	// the detection signal survives the service boundary too.
	bjob, bprobe := probeJob(t, workload.ProbeBrokenReassoc)
	bresp, err := c.Submit(bjob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := c.Result(bresp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Summary.AccumFingerprint == "" {
		t.Fatal("broken probe: no fingerprint recovered")
	}
	if bres.Summary.AccumFingerprint != bprobe.Emitted.Fingerprint() {
		t.Fatalf("broken probe fingerprint %q, want emitted %q", bres.Summary.AccumFingerprint, bprobe.Emitted.Fingerprint())
	}
	if bres.Summary.AccumFingerprint == bprobe.Expected.Fingerprint() {
		t.Fatal("broken probe fingerprint matches its documented claim — reassociation undetected")
	}
}

// TestE2EProbeFingerprintGating: non-probe jobs and modes whose traces
// cannot support reconstruction must not grow a fingerprint.
func TestE2EProbeFingerprintGating(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 2})
	c := client.New(ts.URL, "gating-client")

	// A non-probe guest in individual mode.
	resp, err := c.Submit(e2eJob(t, "not-a-probe", 3, nil), fpspy.Config{Mode: fpspy.ModeIndividual})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.AccumFingerprint != "" {
		t.Fatalf("non-probe job grew fingerprint %q", res.Summary.AccumFingerprint)
	}

	// A probe in aggregate mode: no record stream, no fingerprint.
	job, _ := probeJob(t, workload.ProbeSerial)
	resp2, err := c.Submit(job, fpspy.Config{Mode: fpspy.ModeAggregate})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Result(resp2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.AccumFingerprint != "" {
		t.Fatalf("aggregate-mode probe grew fingerprint %q", res2.Summary.AccumFingerprint)
	}
}
