package cluster_test

// The cluster-routed leg of the reproducibility matrix: a probe clone
// forwarded to its consistent-hash owner, studied remotely, and served
// from every peer's cache must carry the identical accumulation-tree
// fingerprint a direct local run recovers. Routing, RPC hedging, and
// outcome installation sit between the guest and the client here — if
// any of them perturbed or truncated the trace, the fingerprint (or
// its presence) would change.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/study"
	"repro/internal/workload"
)

func TestClusterRoutedProbeFingerprint(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	cfg := study.ProbeConfig()

	probe, err := workload.BuildProbe(workload.DefaultProbeSpec(workload.ProbeStrided, workload.SizeSmall))
	if err != nil {
		t.Fatal(err)
	}
	want := probe.Expected.Fingerprint()
	job := jobs.Capture(probe.Prog.Name, probe.Prog, nil, 4<<20)
	blob := encodeJob(t, job)

	// Submit via a peer that does NOT own the content address, so the
	// job takes the forwarding path.
	owner := ownerIndex(t, peers, job, cfg)
	via := (owner + 1) % len(peers)
	cl := fastClient(peers[via].url, "probe-routed")
	resp, err := cl.SubmitBlobContext(context.Background(), job.Name, blob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if st.State != server.StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	res, err := cl.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.AccumFingerprint != want {
		t.Fatalf("routed fingerprint %q, want %q", res.Summary.AccumFingerprint, want)
	}

	// Resubmit via every peer: each must be a cache hit (the outcome
	// was installed cluster-wide) carrying the same fingerprint.
	for i, p := range peers {
		cl := fastClient(p.url, fmt.Sprintf("probe-cached-%d", i))
		resp, err := cl.SubmitBlobContext(context.Background(), job.Name, blob, cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("peer %d: state %s (%s)", i, st.State, st.Error)
		}
		res, err := cl.Result(resp.ID)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if res.Summary.AccumFingerprint != want {
			t.Fatalf("peer %d: fingerprint %q, want %q", i, res.Summary.AccumFingerprint, want)
		}
	}

	// One pass total, cluster-wide: the fingerprint everywhere came
	// from a single execution, not from agreeing re-runs.
	if n := totalPasses(peers); n != 1 {
		t.Fatalf("cluster executed %d passes, want 1", n)
	}
}
