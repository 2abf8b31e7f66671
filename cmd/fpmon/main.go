// Command fpmon is the live observability dashboard for the FPSpy
// reproduction. It runs a workload (or the full study's passes) with
// metrics and tracing enabled, refreshes a text dashboard while the
// simulation executes, and prints the final summary table.
//
// Usage:
//
//	fpmon [-size small|large] [-interval 250ms] <workload>
//	fpmon -study [-workers N]      # monitor the full study's passes
//	fpmon -snapshot metrics.json   # render a saved -metricsout snapshot
//	fpmon -url http://host:port    # poll a remote daemon's /metrics
//	fpmon -url http://a:1,http://b:2,...   # per-peer cluster dashboard
//
// The same snapshot JSON is served live on -pprof's /metrics endpoint
// and on fpspyd's /metrics, so -url turns fpmon into the remote live
// dashboard for a running daemon: it polls the snapshot every
// -interval, redraws, and prints the final summary when interrupted
// (or after -polls refreshes). A comma-separated -url polls every named
// cluster member and stacks one dashboard section per peer; an
// unreachable peer shows as down in its section instead of killing the
// dashboard, so the view stays useful through node failures.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	fpspy "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

func main() {
	snapshotPath := flag.String("snapshot", "", "render a saved metrics snapshot JSON file and exit")
	remoteURL := flag.String("url", "", "poll remote daemon /metrics snapshots (comma-separated URLs = per-peer cluster dashboard)")
	polls := flag.Int("polls", 0, "with -url, stop after this many refreshes (0 = until interrupted)")
	runStudy := flag.Bool("study", false, "monitor the full study's passes instead of one workload")
	workers := flag.Int("workers", 0, "study worker pool size (0 = one per CPU)")
	size := flag.String("size", "large", "problem size: small or large")
	interval := flag.Duration("interval", 250*time.Millisecond, "dashboard refresh interval")
	noDash := flag.Bool("nodash", false, "skip the live dashboard, print only the final summary")
	pprofAddr := flag.String("pprof", "", "serve pprof and /metrics on this address")
	flag.Parse()

	if *snapshotPath != "" {
		data, err := os.ReadFile(*snapshotPath)
		if err != nil {
			fatal(err)
		}
		snap, err := obs.ParseSnapshot(data)
		if err != nil {
			fatal(err)
		}
		fmt.Print(obs.RenderSummary(snap))
		return
	}
	if *remoteURL != "" {
		if err := pollRemote(*remoteURL, *interval, *polls, *noDash); err != nil {
			fatal(err)
		}
		return
	}

	om := obs.New(obs.Options{TraceCapacity: 1 << 20})
	if *pprofAddr != "" {
		srv, err := obs.Serve(*pprofAddr, om)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fpmon: pprof and /metrics on http://%s\n", srv.Addr)
	}
	sampler := obs.StartSelfSampler(om, *interval)

	done := make(chan error, 1)
	if *runStudy {
		s := study.NewWithWorkers(*workers)
		s.Obs = om
		go func() {
			s.Prewarm()
			done <- nil
		}()
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: fpmon [-interval DUR] <workload> | -study | -snapshot FILE")
			os.Exit(2)
		}
		sz, err := workload.ParseSize(*size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpmon:", err)
			os.Exit(2)
		}
		w, err := workload.ByName(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cfg := core.Config{Mode: core.ModeIndividual, ExceptList: core.AllEvents &^ fpspy.FlagInexact}
		go func() {
			_, err := fpspy.Run(w.Build(sz), fpspy.Options{Config: cfg, Obs: om})
			done <- err
		}()
	}

	var runErr error
	if *noDash {
		runErr = <-done
	} else {
		tick := time.NewTicker(*interval)
	loop:
		for {
			select {
			case runErr = <-done:
				tick.Stop()
				break loop
			case <-tick.C:
				// ANSI home+clear keeps the dashboard in place on real
				// terminals and degrades to plain appends elsewhere.
				fmt.Print("\033[H\033[2J")
				fmt.Print(obs.RenderDashboard(om.Snapshot()))
			}
		}
	}
	sampler.Stop()
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Print(obs.RenderSummary(om.Snapshot()))
}

// metricsURL normalizes a -url value to the /metrics endpoint: a bare
// host:port gains the http scheme, and the path is appended unless the
// caller already points at a snapshot route.
func metricsURL(raw string) string {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	if strings.HasSuffix(raw, "/metrics") {
		return raw
	}
	return strings.TrimRight(raw, "/") + "/metrics"
}

// fetchSnapshot scrapes one remote snapshot.
func fetchSnapshot(url string) (obs.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseSnapshot(data)
}

// pollRemote is the -url mode: the live dashboard over one or more
// remote daemons' /metrics snapshots. A single URL keeps the classic
// behavior (any fetch error aborts); a comma-separated list renders one
// dashboard section per cluster peer and tolerates down peers, so the
// view survives exactly the node failures a cluster operator watches
// for. It refreshes every interval until the poll budget is spent or
// the user interrupts, then prints each peer's final summary.
func pollRemote(raw string, interval time.Duration, polls int, noDash bool) error {
	var urls []string
	for _, u := range strings.Split(raw, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, metricsURL(u))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-url: no URLs in %q", raw)
	}
	single := len(urls) == 1

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	last := make([]obs.Snapshot, len(urls))
	ever := make([]bool, len(urls)) // ever fetched a snapshot
	up := make([]bool, len(urls))   // last poll succeeded
	seen := 0
	tick := time.NewTicker(interval)
	defer tick.Stop()

	finalSummary := func() {
		for i, url := range urls {
			if !single {
				fmt.Printf("== peer %d/%d %s ==\n", i+1, len(urls), url)
			}
			if ever[i] {
				fmt.Print(obs.RenderSummary(last[i]))
			} else {
				fmt.Println("(no snapshot seen)")
			}
		}
	}

	for {
		for i, url := range urls {
			snap, err := fetchSnapshot(url)
			if err != nil {
				if single {
					return err
				}
				up[i] = false
				continue
			}
			last[i], ever[i], up[i] = snap, true, true
		}
		seen++
		if !noDash {
			fmt.Print("\033[H\033[2J")
			fmt.Printf("fpmon -url %s (poll %d)\n", raw, seen)
			for i, url := range urls {
				if !single {
					state := "up"
					if !up[i] {
						state = "DOWN"
					}
					fmt.Printf("== peer %d/%d %s [%s] ==\n", i+1, len(urls), url, state)
				}
				if up[i] {
					fmt.Print(obs.RenderDashboard(last[i]))
				}
			}
		}
		if polls > 0 && seen >= polls {
			break
		}
		select {
		case <-sigc:
			fmt.Println()
			finalSummary()
			return nil
		case <-tick.C:
		}
	}
	finalSummary()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmon:", err)
	os.Exit(1)
}
