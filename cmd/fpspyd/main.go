// Command fpspyd is the study-as-a-service daemon: it serves the
// fpspy HTTP/JSON API (POST /v1/jobs, POST /v1/shadowjobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/result, GET /v1/figures,
// GET /metrics) backed by one bounded job queue, a content-addressed
// result cache, and per-client rate limiting, replaying submission
// clones on the study scheduler's worker pool. -workers alone sets how
// many passes run at once: one dispatcher drains the queue per worker.
//
// Usage:
//
//	fpspyd [-addr 127.0.0.1:8765] [-workers N] [-queue 256]
//	       [-rate R -burst B] [-state queue.gob] [-addrfile FILE]
//	       [-peers URL,URL,...] [-advertise URL] [-join URL]
//
// Clustering: -peers (a comma-separated seed membership), -join (an
// existing member to introduce ourselves to), or -advertise (our own
// URL as peers should dial it) turn the daemon into a cluster node.
// Every node serves the same client API from its own daemon; a
// submission that starts a new cache entry is placed at admission on
// the member that owns its content address on a consistent-hash ring,
// so identical clones study once cluster-wide and the settled outcome
// is cached on every node that placed it. Without -advertise the node
// advertises http://<bound address>, which works when peers share a
// network namespace with us; behind NAT or containers pass -advertise
// explicitly.
//
// SIGINT/SIGTERM drain gracefully: in-flight passes complete, queued
// jobs (and jobs whose forward to their owner was cut short) persist to
// -state, and a restarted daemon resumes them.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8765", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file (for scripts using :0)")
	workers := flag.Int("workers", 0, "study worker pool size and passes run at once (0 = one per CPU)")
	queue := flag.Int("queue", 256, "job queue depth")
	rate := flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
	burst := flag.Int("burst", 8, "rate limiter burst")
	stateFile := flag.String("state", "", "persist queued jobs here across restarts")
	peers := flag.String("peers", "", "comma-separated peer URLs to cluster with")
	advertise := flag.String("advertise", "", "our URL as peers should dial it (default http://<bound addr>)")
	join := flag.String("join", "", "existing cluster member to join via")
	flag.Parse()

	om := obs.New(obs.Options{TraceCapacity: 1 << 18})
	srv, err := server.New(server.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		RatePerSec: *rate,
		Burst:      *burst,
		StateFile:  *stateFile,
		Obs:        om,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "fpspyd: serving on http://%s\n", bound)

	// Clustering: wrap the daemon in a cluster node when any cluster
	// flag is set. The node passes the client API through to the daemon,
	// places new passes on their owners, and serves the /cluster/v1/*
	// peer RPCs on the same listener.
	var node *cluster.Node
	handler := http.Handler(srv)
	if *peers != "" || *join != "" || *advertise != "" {
		self := *advertise
		if self == "" {
			self = "http://" + bound
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" && p != self {
				peerList = append(peerList, p)
			}
		}
		node, err = cluster.NewNode(cluster.Options{
			Self: self, Peers: peerList, Server: srv, Obs: om,
		})
		if err != nil {
			fatal(err)
		}
		handler = node
		fmt.Fprintf(os.Stderr, "fpspyd: clustering as %s with %d seed peer(s)\n", self, len(peerList))
	}

	httpSrv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	if node != nil && *join != "" {
		if err := node.Join(*join); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fpspyd: joined cluster via %s (%d member(s))\n", *join, len(node.Ring().Known()))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "fpspyd: %v, draining\n", sig)
	case err := <-done:
		fatal(err)
	}

	// Closing the node first stops placement and hands forwards still in
	// flight back to the daemon's queue; the drain treats them like any
	// queued job.
	if node != nil {
		node.Close()
	}
	persisted, err := srv.Shutdown()
	if err != nil {
		fatal(err)
	}
	httpSrv.Close() //nolint:errcheck // going down anyway
	if *stateFile != "" {
		fmt.Fprintf(os.Stderr, "fpspyd: persisted %d queued job(s) to %s\n", persisted, *stateFile)
	} else if persisted > 0 {
		fmt.Fprintf(os.Stderr, "fpspyd: dropped %d queued job(s) (no -state file)\n", persisted)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpspyd:", err)
	os.Exit(1)
}
