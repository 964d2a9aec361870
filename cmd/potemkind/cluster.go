package main

// Cluster mode: -coordinator runs the epoch barrier and feed driver;
// -worker hosts a subset of the shard domains. Both sides are launched
// with the same scenario flags (SPMD), build their engine from the
// same potemkin.Options through potemkin.EngineConfig, and verify
// agreement during the handshake, so a worker started with a different
// seed or policy is rejected instead of silently diverging. The merged
// results are byte-identical to a single-process run of the same
// Options.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"potemkin"
	"potemkin/internal/cluster"
	"potemkin/internal/core"
	"potemkin/internal/score"
	"potemkin/internal/telescope"
)

// clusterTag canonically renders the run's configuration; coordinator
// and workers must produce the same string or the handshake fails.
func clusterTag(opts potemkin.Options, ec core.ShardEngineConfig) string {
	t := fmt.Sprintf("space=%s servers=%d shards=%d policy=%s idle=%s guest=%s seed=%d",
		opts.MonitoredSpace, opts.Servers, ec.Shards, opts.Policy, ec.Gateway.IdleTimeout,
		ec.Farm.Profile.Name, ec.Seed)
	if sc := opts.Scenario; sc != nil {
		// The content hash catches roles launched with divergent scenario
		// files that happen to share a name.
		t += fmt.Sprintf(" scenario=%s#%016x", sc.Name, sc.Hash())
	}
	return t
}

// clusterLogf writes cluster progress to stderr, keeping stdout clean
// for -json output.
func clusterLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "potemkind: "+format+"\n", args...)
}

type coordinatorRun struct {
	// opts is the run's configuration, the same Options a
	// single-process run builds from; EventLog and TraceOut receive
	// the workers' merged output.
	opts potemkin.Options
	// epochLog receives the coordinator's epoch timeline.
	epochLog io.Writer
	addr     string
	workers  int

	heartbeat        time.Duration
	heartbeatTimeout time.Duration
	recoveryWait     time.Duration

	feed         feedFlags
	jsonOut      bool
	snapOut      string
	scorecardOut string
	// debugAddr serves the farm-wide /metrics and /cluster health views
	// (plus expvar/pprof) while the run is live.
	debugAddr string
}

// runClusterCoordinator drives one cluster run end to end and returns
// the process exit code. A SIGINT/SIGTERM halts the feed at the next
// epoch boundary and still merges and flushes everything collected so
// far — same graceful-flush contract as single-process mode.
func runClusterCoordinator(r coordinatorRun) int {
	// With Metrics (-debug-addr) or a scenario the registry is on, and
	// it turns on worker-side telemetry too (the assign message carries
	// the flag): heartbeats piggyback the snapshots the farm-wide
	// /metrics merge, and the scenario's scorecard, are built from.
	ec, plan, err := potemkin.EngineConfig(r.opts)
	if err != nil {
		clusterLogf("%v", err)
		return 1
	}
	// The timeline profiles the coordinator's own barriers, with or
	// without -parallel, so it bypasses Options.EpochLog (which
	// requires Parallel).
	ec.EpochLog = r.epochLog
	tag := clusterTag(r.opts, ec)
	c, err := cluster.New(cluster.Config{
		Engine:            ec,
		ConfigTag:         tag,
		ListenAddr:        r.addr,
		Workers:           r.workers,
		HeartbeatInterval: r.heartbeat,
		HeartbeatTimeout:  r.heartbeatTimeout,
		RecoveryWait:      r.recoveryWait,
		RecoveryLog:       os.Stderr,
		Logf:              clusterLogf,
	})
	if err != nil {
		clusterLogf("%v", err)
		return 1
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		clusterLogf("%v", err)
		return 1
	}
	fmt.Printf("coordinator on %s: %d shards across %d workers, scenario %q\n",
		c.Addr(), ec.Shards, r.workers, tag)
	if r.debugAddr != "" {
		// Both handlers read only atomics published by the driver and
		// read loops, so serving them from HTTP goroutines mid-run is
		// safe (same rule as the single-process /metrics).
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(c.MetricsText())
		})
		http.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(c.HealthJSON())
		})
		go func() {
			if err := http.ListenAndServe(r.debugAddr, nil); err != nil {
				clusterLogf("debug endpoint: %v", err)
			}
		}()
		fmt.Printf("debug endpoint on http://%s (/metrics, /cluster, /debug/pprof)\n", r.debugAddr)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var interrupted atomic.Bool
	go func() {
		<-ctx.Done()
		interrupted.Store(true)
	}()

	if err := c.WaitReady(5 * time.Minute); err != nil {
		clusterLogf("%v", err)
		return 1
	}
	fmt.Printf("workers ready; starting feed\n")

	// The feed epilogue: how long the farm keeps simulating after the
	// last packet. Scenario runs use the campaign's settle window so the
	// scorecard sees the same horizon as a facade run.
	epilogue := time.Millisecond
	var src telescope.Source
	if plan != nil {
		src = potemkin.SliceSource(plan.Records)
		epilogue = plan.Settle
		fmt.Printf("scenario %q: replaying %d campaign packets, settling %v\n",
			r.opts.Scenario.Name, len(plan.Records), plan.Settle)
	} else {
		synth := func(d time.Duration, pps float64) ([]potemkin.TraceRecord, error) {
			g := telescope.DefaultGenConfig()
			g.Space, g.Duration, g.Rate, g.Seed = ec.Gateway.Space, d, pps, ec.Seed
			return telescope.Generate(g)
		}
		var closeSrc func()
		if src, closeSrc, err = r.feed.open(synth); err != nil {
			clusterLogf("%v", err)
			return 1
		}
		defer closeSrc()
	}

	injected, rerr := c.Replay(src, interrupted.Load, epilogue)
	if interrupted.Load() {
		fmt.Println("\ninterrupted: flushing writers and reporting partial results")
	}
	res, err := c.Results()
	if res == nil {
		clusterLogf("%v", err)
		return 1
	}
	// Flush collected output even when the run degraded: partial
	// results are the whole point of the clean-degrade path.
	if ec.EventLog != nil {
		ec.EventLog.Write(res.Events)
	}
	if ec.TraceOut != nil {
		ec.TraceOut.Write(res.Trace)
	}
	exit := 0
	if rerr != nil {
		clusterLogf("replay: %v", rerr)
		exit = 1
	} else if err != nil {
		clusterLogf("results: %v", err)
		exit = 1
	}
	for _, ev := range c.RecoveryEvents() {
		fmt.Fprintf(os.Stderr, "potemkind: recovery: %s\n", ev)
	}
	if plan != nil {
		// The merged worker snapshots carry the same counters a single
		// process would have accumulated, so this card is byte-identical
		// to the facade's for the same scenario, seed, and shard count.
		card := score.Compute(plan.Facts(r.opts.Policy.String()), res.Metrics)
		if err := emitScorecard(card, r.scorecardOut, r.jsonOut); err != nil {
			clusterLogf("%v", err)
			exit = 1
		}
	}

	st := clusterStats(res)
	note := fmt.Sprintf(" (%d recoveries)", c.Recoveries())
	if err := printReport(st, injected, r.opts.Servers, note, r.jsonOut); err != nil {
		clusterLogf("%v", err)
		return 1
	}
	if r.jsonOut {
		return exit
	}
	if r.snapOut != "" {
		b, err := json.MarshalIndent(st, "", "  ")
		if err == nil {
			err = os.WriteFile(r.snapOut, b, 0o644)
		}
		if err != nil {
			clusterLogf("%v", err)
			return 1
		}
		fmt.Printf("\n[snapshot] %s\n", r.snapOut)
	}
	return exit
}

// clusterStats shapes merged cluster results as the facade's Stats so
// -json output is directly comparable with a single-process run.
func clusterStats(res *cluster.Results) potemkin.Stats {
	return potemkin.Stats{
		Now:               time.Duration(res.Now),
		LiveVMs:           res.LiveVMs,
		PeakVMs:           res.Farm.PeakLiveVMs,
		InfectedVMs:       res.InfectedVMs,
		BindingsCreated:   res.Gateway.BindingsCreated,
		BindingsRecycled:  res.Gateway.BindingsRecycled,
		InboundPackets:    res.Gateway.InboundPackets,
		DeliveredToVM:     res.Gateway.DeliveredToVM,
		OutboundDropped:   res.Gateway.OutDropped,
		OutboundToSource:  res.Gateway.OutToSource,
		OutboundReflected: res.Gateway.OutReflected,
		DNSProxied:        res.Gateway.OutDNSProxied,
		SpawnFailures:     res.Gateway.SpawnFailures + res.Farm.SpawnFailures,
		DetectedInfected:  res.Gateway.DetectedInfected,
		ScanFiltered:      res.Gateway.ScanFiltered,
		MemoryInUse:       res.Memory,
	}
}

// runClusterWorker serves shards until the coordinator shuts the run
// down, and returns the process exit code. The first SIGINT/SIGTERM is
// deferred to the coordinator (which owns the run's lifecycle and the
// flush of everything this worker has buffered); a second one forces
// exit.
func runClusterWorker(opts potemkin.Options, addr, name string, heartbeat time.Duration) int {
	ec, _, err := potemkin.EngineConfig(opts)
	if err != nil {
		clusterLogf("%v", err)
		return 1
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		clusterLogf("worker %s: interrupt deferred — the coordinator drives shutdown and flushes buffered output; ^C again to force", name)
		<-sigs
		os.Exit(1)
	}()
	err = cluster.RunWorker(cluster.WorkerConfig{
		Addr:              addr,
		Engine:            ec,
		ConfigTag:         clusterTag(opts, ec),
		Name:              name,
		HeartbeatInterval: heartbeat,
		// Die as abruptly as a SIGKILL: the whole point of the injected
		// fault is exercising the coordinator's crash recovery.
		OnKill: func(worker int) {
			clusterLogf("worker %s: killed by injected fault (worker slot %d)", name, worker)
			os.Exit(137)
		},
		Logf: clusterLogf,
	})
	if err != nil {
		clusterLogf("worker %s: %v", name, err)
		return 1
	}
	clusterLogf("worker %s: clean shutdown", name)
	return 0
}
