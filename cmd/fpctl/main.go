// Command fpctl is the fpspyd client: it captures submission clones
// from the workload registry, submits them to a daemon, and follows
// their status, result streams, and the daemon's aggregate figures.
//
// Usage:
//
//	fpctl capture -workload nas-ep [-size small|large] [-mem N] [-env K=V]... -o ep.clone
//	fpctl submit  -server URL -job ep.clone [-name NAME] [-mode individual] [...]
//	fpctl status  -server URL -id job-000001
//	fpctl result  -server URL -id job-000001        # NDJSON stream to stdout
//	fpctl watch   -server URL -id job-000001
//	fpctl figures -server URL [-id 8]
//	fpctl rootcause -server URL -job ep.clone [-prec 113] [-top 10]
//
// submit's configuration flags mirror the paper's FPE_* environment
// variables and are parsed by the same code path (core.ParseConfig).
//
// Against a cluster, any node is the whole service: -server may name
// any member (submissions route to the clone's owner internally), or a
// comma-separated list of members ("http://a:8765,http://b:8765") the
// client fails over between when one stops answering. Retried and
// failed-over submissions are safe: jobs are content-addressed, so a
// duplicate arrival is a cache hit, never a second study.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "capture":
		capture(os.Args[2:])
	case "submit":
		submit(os.Args[2:])
	case "status":
		status(os.Args[2:])
	case "result":
		result(os.Args[2:])
	case "watch":
		watch(os.Args[2:])
	case "figures":
		figures(os.Args[2:])
	case "rootcause":
		rootcause(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fpctl capture|submit|status|result|watch|figures|rootcause [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpctl:", err)
	os.Exit(1)
}

// envList collects repeated -env K=V flags.
type envList map[string]string

func (e envList) String() string { return fmt.Sprintf("%v", map[string]string(e)) }
func (e envList) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want K=V, got %q", v)
	}
	e[k] = val
	return nil
}

func capture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	name := fs.String("workload", "", "workload to capture (required)")
	size := fs.String("size", "small", "problem size: small or large")
	mem := fs.Int("mem", 4<<20, "memory request in bytes")
	out := fs.String("o", "", "output clone file (required)")
	env := envList{}
	fs.Var(env, "env", "launch environment entry K=V (repeatable)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *name == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	w, err := workload.ByName(*name)
	if err != nil {
		fatal(err)
	}
	sz, err := workload.ParseSize(*size)
	if err != nil {
		fatal(err)
	}
	job := jobs.Capture(*name, w.Build(sz), env, *mem)
	blob, err := job.Encode()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %s (%d bytes) -> %s\n", *name, len(blob), *out)
}

// clientFlags adds the flags every daemon-facing subcommand shares.
func clientFlags(fs *flag.FlagSet) (srv, id *string) {
	srv = fs.String("server", "http://127.0.0.1:8765",
		"daemon base URL, or comma-separated cluster member URLs to fail over between")
	id = fs.String("client", "fpctl", "client identity for rate limiting")
	return
}

func submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	jobFile := fs.String("job", "", "clone file from fpctl capture (required)")
	name := fs.String("name", "", "override the submission name")
	mode := fs.String("mode", "aggregate", "FPE_MODE: aggregate or individual")
	aggressive := fs.Bool("aggressive", false, "FPE_AGGRESSIVE")
	except := fs.String("except", "", "FPE_EXCEPT_LIST (comma-separated)")
	sample := fs.String("sample", "", "FPE_SAMPLE (N or on:off microseconds)")
	storm := fs.String("storm", "", "FPE_STORM (faults:cycles)")
	maxcount := fs.String("maxcount", "", "FPE_MAXCOUNT")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *jobFile == "" {
		fs.Usage()
		os.Exit(2)
	}
	blob, err := os.ReadFile(*jobFile)
	if err != nil {
		fatal(err)
	}
	env := map[string]string{"FPE_MODE": *mode}
	if *aggressive {
		env["FPE_AGGRESSIVE"] = "yes"
	}
	if *except != "" {
		env["FPE_EXCEPT_LIST"] = *except
	}
	if *sample != "" {
		env["FPE_SAMPLE"] = *sample
	}
	if *storm != "" {
		env["FPE_STORM"] = *storm
	}
	if *maxcount != "" {
		env["FPE_MAXCOUNT"] = *maxcount
	}
	cfg, err := core.ParseConfig(env)
	if err != nil {
		fatal(err)
	}
	resp, err := client.New(*srv, *cid).SubmitBlob(*name, blob, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("id=%s state=%s cacheHit=%v\n", resp.ID, resp.State, resp.CacheHit)
}

func status(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *id == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := client.New(*srv, *cid).Status(*id)
	if err != nil {
		fatal(err)
	}
	printStatus(st)
}

func printStatus(st *server.StatusResponse) {
	fmt.Printf("id=%s name=%s state=%s cacheHit=%v client=%s", st.ID, st.Name, st.State, st.CacheHit, st.Client)
	if st.Error != "" {
		fmt.Printf(" error=%q", st.Error)
	}
	fmt.Println()
}

func result(args []string) {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *id == "" {
		fs.Usage()
		os.Exit(2)
	}
	// Stream the NDJSON through verbatim: event lines as the raw
	// monitor-log text, then the summary.
	sum, err := client.New(*srv, *cid).StreamResult(*id, func(line server.ResultLine) error {
		if line.Type == "event" {
			fmt.Println(line.Line)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("summary: steps=%d wallCycles=%d exit=%d eventSet=%#x records=%d aggregates=%d events=%d cacheHit=%v\n",
		sum.Steps, sum.WallCycles, sum.ExitCode, sum.EventSet, sum.Records, sum.Aggregates, sum.Events, sum.CacheHit)
}

func watch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	interval := fs.Duration("interval", 200*time.Millisecond, "poll interval")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *id == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := client.New(*srv, *cid).Watch(*id, *interval)
	if err != nil {
		fatal(err)
	}
	printStatus(st)
	if st.State == server.StateFailed {
		os.Exit(1)
	}
}

// rootcause submits a clone as a shadow job (POST /v1/shadowjobs),
// waits for the pass, and renders the ranked per-site attribution the
// result stream carries.
func rootcause(args []string) {
	fs := flag.NewFlagSet("rootcause", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	jobFile := fs.String("job", "", "clone file from fpctl capture (required)")
	name := fs.String("name", "", "override the submission name")
	prec := fs.Uint64("prec", 0, "shadow precision in mantissa bits (0 = server default)")
	top := fs.Int("top", 10, "sites to print (0 = all)")
	interval := fs.Duration("interval", 200*time.Millisecond, "poll interval")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *jobFile == "" {
		fs.Usage()
		os.Exit(2)
	}
	blob, err := os.ReadFile(*jobFile)
	if err != nil {
		fatal(err)
	}
	c := client.New(*srv, *cid)
	resp, err := c.SubmitShadowBlobContext(context.Background(), *name, blob, core.Config{}, *prec)
	if err != nil {
		fatal(err)
	}
	st, err := c.Watch(resp.ID, *interval)
	if err != nil {
		fatal(err)
	}
	if st.State == server.StateFailed {
		printStatus(st)
		os.Exit(1)
	}
	var sites []analysis.RootCauseSite
	sum, err := c.StreamResult(resp.ID, func(line server.ResultLine) error {
		if line.Type == "site" && line.Site != nil {
			sites = append(sites, *line.Site)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("root cause @ %d-bit shadow: %d sites, %d ops, %.4g ulps introduced (99%% in top %d), max divergence %d ulps\n",
		sum.ShadowPrec, sum.ShadowSites, sum.ShadowOps, sum.ShadowLocalUlps, sum.ShadowSites99, sum.ShadowMaxUlps)
	fmt.Printf("%4s  %-12s %-8s %10s %10s  %12s %12s %8s\n",
		"rank", "addr", "op", "count", "diverged", "local-ulps", "prop-ulps", "max-ulps")
	for i, s := range sites {
		if *top > 0 && i >= *top {
			fmt.Printf("... %d more sites\n", len(sites)-i)
			break
		}
		fmt.Printf("%4d  %#-12x %-8s %10d %10d  %12.4g %12.4g %8d\n",
			i+1, s.Addr, s.Op, s.Count, s.Diverged, s.LocalUlps, s.PropUlps, s.MaxUlps)
	}
}

func figures(args []string) {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	srv, cid := clientFlags(fs)
	id := fs.String("id", "", "figure ID (empty = list)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	c := client.New(*srv, *cid)
	if *id == "" {
		ids, err := c.Figures()
		if err != nil {
			fatal(err)
		}
		fmt.Println(strings.Join(ids, " "))
		return
	}
	fig, err := c.Figure(*id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s — %s\n", fig.ID, fig.Title)
	fmt.Println(strings.Join(fig.Header, "  "))
	for _, row := range fig.Rows {
		fmt.Println(strings.Join(row, "  "))
	}
	for _, n := range fig.Notes {
		fmt.Println("note:", n)
	}
}
