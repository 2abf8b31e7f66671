package cluster_test

// The cluster-routed leg of the shadow-precision acceptance criterion:
// the same shadow job submitted via two different fpspyd peers must run
// exactly one pass cluster-wide, and the ranked attribution table must
// be byte-identical wherever it is served from. The precision is folded
// into the content address before routing, so routing and execution
// agree on ownership and a plain job over the same clone stays a
// distinct cache entry.

import (
	"context"
	"fmt"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/server"
	"repro/internal/server/client"
)

func shadowResult(t testing.TB, c *client.Client, id string) ([]analysis.RootCauseSite, *server.Summary) {
	t.Helper()
	var sites []analysis.RootCauseSite
	sum, err := c.StreamResultContext(context.Background(), id, func(line server.ResultLine) error {
		if line.Type == "site" && line.Site != nil {
			sites = append(sites, *line.Site)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites, sum
}

func TestClusterRoutedShadowJob(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	job := cjob(t, "shadow-routed", 4)
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}

	// Routing happens under the normalized config (precision folded in);
	// submit via a peer that does NOT own that address so the job takes
	// the forwarding path.
	eff, err := server.NormalizeShadowConfig(cfg, 113)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerIndex(t, peers, job, eff)
	via := (owner + 1) % len(peers)
	cl := fastClient(peers[via].url, "shadow-routed-a")
	resp, err := cl.SubmitShadowContext(context.Background(), job, cfg, 113)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if st.State != server.StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	sites, sum := shadowResult(t, cl, resp.ID)
	if sum.ShadowPrec != 113 || len(sites) == 0 {
		t.Fatalf("routed shadow result: prec %d, %d sites", sum.ShadowPrec, len(sites))
	}
	if sites[0].Op != "divsd" || sites[0].LocalUlps <= 0 {
		t.Fatalf("rank-1 site %+v, want the inexact divsd", sites[0])
	}

	// The same shadow job via every other peer: each a settled cache hit
	// with the identical ranked table.
	for i, p := range peers {
		cl := fastClient(p.url, fmt.Sprintf("shadow-routed-%d", i))
		resp2, err := cl.SubmitShadowContext(context.Background(), job, cfg, 113)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		st, err := cl.WatchContext(context.Background(), resp2.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("peer %d: state %s (%s)", i, st.State, st.Error)
		}
		sites2, sum2 := shadowResult(t, cl, resp2.ID)
		if len(sites2) != len(sites) {
			t.Fatalf("peer %d: %d sites, want %d", i, len(sites2), len(sites))
		}
		for j := range sites {
			if sites[j] != sites2[j] {
				t.Fatalf("peer %d: site %d differs:\nfirst: %+v\npeer:  %+v", i, j, sites[j], sites2[j])
			}
		}
		if sum2.ShadowLocalUlps != sum.ShadowLocalUlps || sum2.ShadowMaxUlps != sum.ShadowMaxUlps {
			t.Fatalf("peer %d: summary scalars differ: %+v vs %+v", i, sum2, sum)
		}
	}

	// The acceptance criterion: one pass total, cluster-wide.
	if n := totalPasses(peers); n != 1 {
		t.Fatalf("cluster executed %d shadow passes, want 1", n)
	}

	// A plain job over the same clone is a different content address: it
	// runs its own (single) pass instead of hitting the shadow entry.
	plain, err := fastClient(peers[0].url, "shadow-plain").SubmitContext(context.Background(), job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHit {
		t.Fatal("plain job hit the shadow job's cluster cache entry")
	}
}
