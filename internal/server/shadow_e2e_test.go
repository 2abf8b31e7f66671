package server_test

// End-to-end shadow-job flow through the daemon: a clone posted to
// /v1/shadowjobs must run with the shadow-precision channel attached,
// stream its ranked attribution sites before the summary, carry the
// report scalars in the summary, and land in the content-addressed
// cache under a key distinct from the plain job over the same clone.

import (
	"context"
	"testing"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/server"
	"repro/internal/server/client"
)

// collectShadowResult streams one result and splits it into the parts a
// shadow client consumes.
func collectShadowResult(t *testing.T, c *client.Client, id string) ([]analysis.RootCauseSite, *server.Summary) {
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

func TestE2EShadowJobStreamsRankedSites(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 2})
	c := client.New(ts.URL, "shadow-client")

	// Four inexact divides at one address: exactly one attributable site.
	job := server.FaultingJob(t, "shadow-guest", 4, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}
	resp, err := c.SubmitShadowContext(context.Background(), job, cfg, 113)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first shadow submission claimed a cache hit")
	}
	sites, sum := collectShadowResult(t, c, resp.ID)

	if sum.ShadowPrec != 113 {
		t.Fatalf("summary prec %d, want 113", sum.ShadowPrec)
	}
	if len(sites) == 0 {
		t.Fatal("no site lines in the result stream")
	}
	if sum.ShadowSites != len(sites) {
		t.Fatalf("summary says %d sites, stream carried %d", sum.ShadowSites, len(sites))
	}
	if sum.ShadowOps == 0 {
		t.Fatal("summary shadowOps = 0 after a shadow pass")
	}
	if sites[0].Op != "divsd" || sites[0].LocalUlps <= 0 {
		t.Fatalf("rank-1 site %+v, want the inexact divsd with positive local error", sites[0])
	}
	for i := 1; i < len(sites); i++ {
		if sites[i].LocalUlps > sites[i-1].LocalUlps {
			t.Fatalf("site stream not in rank order: %v after %v", sites[i].LocalUlps, sites[i-1].LocalUlps)
		}
	}

	// The identical shadow resubmission is absorbed by the cache and
	// replays the same ranked table.
	resp2, err := c.SubmitShadowContext(context.Background(), job, cfg, 113)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("identical shadow resubmission missed the cache")
	}
	sites2, sum2 := collectShadowResult(t, c, resp2.ID)
	if len(sites2) != len(sites) {
		t.Fatalf("cached replay carried %d sites, want %d", len(sites2), len(sites))
	}
	for i := range sites {
		if sites[i] != sites2[i] {
			t.Fatalf("cached site %d differs:\nfirst:  %+v\ncached: %+v", i, sites[i], sites2[i])
		}
	}
	if sum2.ShadowLocalUlps != sum.ShadowLocalUlps || sum2.ShadowMaxUlps != sum.ShadowMaxUlps {
		t.Fatalf("cached summary scalars differ: %+v vs %+v", sum2, sum)
	}

	// A plain submission of the same clone is a different cache entry —
	// no site lines, no shadow scalars — and a different precision is a
	// third entry.
	plain, err := c.SubmitContext(context.Background(), job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHit {
		t.Fatal("plain job hit the shadow job's cache entry")
	}
	psites, psum := collectShadowResult(t, c, plain.ID)
	if len(psites) != 0 || psum.ShadowPrec != 0 || psum.ShadowSites != 0 {
		t.Fatalf("plain job leaked shadow output: %d sites, summary %+v", len(psites), psum)
	}
	other, err := c.SubmitShadowContext(context.Background(), job, cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("prec-256 shadow job hit the prec-113 cache entry")
	}

	// Default resolution: prec 0 normalizes to DefaultShadowPrec, so an
	// explicit-113 resubmission of a default submission is a cache hit.
	def, err := c.SubmitShadowContext(context.Background(), job, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !def.CacheHit {
		t.Fatal("default-precision shadow job missed the explicit-113 cache entry")
	}
}

// TestE2EShadowJobRejectsBadPrecision: out-of-range precisions are a
// client error, not a queued failure.
func TestE2EShadowJobRejectsBadPrecision(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 1})
	c := client.New(ts.URL, "shadow-bad")
	job := server.FaultingJob(t, "shadow-bad", 1, nil)
	for _, prec := range []uint64{1, 23, fpspy.MaxShadowPrec + 1} {
		if _, err := c.SubmitShadowContext(context.Background(), job, fpspy.Config{Mode: fpspy.ModeIndividual}, prec); err == nil {
			t.Errorf("prec %d accepted, want rejection", prec)
		}
	}
}
