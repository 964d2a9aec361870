package potemkin

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/trace"
)

// foldRun is everything observable one run produces.
type foldRun struct {
	events, jsonl, chrome, metrics []byte
	stats                          Stats
}

const (
	foldSeed    = 13
	foldSpace   = "10.5.0.0/20"
	foldVictim  = "10.5.7.20"
	foldAttack  = "198.51.100.10"
	foldTrace   = time.Second
	foldRate    = 300
	foldDrainTo = 500 * time.Millisecond
)

// classicWiringRun is the reference: the single-kernel wiring the
// facade used before every mode ran on the shard engine — one kernel,
// one farm, one gateway, the safe DNS resolver, a StreamReplayer feed,
// and a 1 ms epilogue.
func classicWiringRun(t *testing.T, idle time.Duration) foldRun {
	t.Helper()
	var out foldRun
	var ev, jsonl, chrome bytes.Buffer
	space := netsim.MustParsePrefix(foldSpace)
	reg := metrics.NewRegistry()
	profile := guest.MultiStageDNS("update.evil.example")

	k := sim.NewKernel(foldSeed)
	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.HostConfig.MemoryBytes = 16 << 30
	fc.Profile = profile
	fc.Metrics = reg
	f, err := farm.New(k, fc)
	if err != nil {
		t.Fatal(err)
	}

	gc := gateway.DefaultConfig()
	gc.Space = space
	gc.Policy = gateway.PolicyInternalReflect
	gc.IdleTimeout = idle
	if idle == 0 {
		gc.IdleTimeout = 60 * time.Second
	}
	gc.Metrics = reg
	gc.EventSink = gateway.JSONLSink(&ev, nil)
	cw := trace.NewChromeWriter(&chrome)
	tracer := trace.New(trace.JSONL(&jsonl, nil), cw.Sink())
	gc.Tracer = tracer
	f.SetTracer(tracer)
	var g *gateway.Gateway
	resolver := dns.NewResolver(space)
	gc.ExternalOut = func(now sim.Time, p *netsim.Packet) {
		if p.Proto == netsim.ProtoUDP && p.Dst == gc.Resolver {
			if resp := resolver.ServePacket(p); resp != nil {
				k.After(time.Millisecond, func(then sim.Time) { g.HandleInbound(then, resp) })
			}
		}
	}
	g = gateway.New(k, gc, f)
	f.SetGateway(g)

	exploit := netsim.TCPSyn(netsim.MustParseAddr(foldAttack), netsim.MustParseAddr(foldVictim),
		40000, profile.ScanDstPort, 1)
	exploit.Flags |= netsim.FlagPSH
	exploit.Payload = profile.ExploitPayload(0)
	g.HandleInbound(k.Now(), exploit)

	gen := telescope.DefaultGenConfig()
	gen.Space, gen.Duration, gen.Rate, gen.Seed = space, foldTrace, foldRate, foldSeed
	recs, err := telescope.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	rp := &telescope.StreamReplayer{K: k, Src: SliceSource(recs), Base: k.Now(), Emit: g.HandleInbound}
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Millisecond)
	k.RunFor(foldDrainTo)

	gs, fs := g.Stats(), f.Stats()
	out.stats = Stats{
		Now:               time.Duration(k.Now()),
		LiveVMs:           f.LiveVMs(),
		PeakVMs:           fs.PeakLiveVMs,
		InfectedVMs:       f.InfectedVMs(),
		BindingsCreated:   gs.BindingsCreated,
		BindingsRecycled:  gs.BindingsRecycled,
		InboundPackets:    gs.InboundPackets,
		DeliveredToVM:     gs.DeliveredToVM,
		OutboundDropped:   gs.OutDropped,
		OutboundToSource:  gs.OutToSource,
		OutboundReflected: gs.OutReflected,
		DNSProxied:        gs.OutDNSProxied,
		SpawnFailures:     gs.SpawnFailures + fs.SpawnFailures,
		DetectedInfected:  gs.DetectedInfected,
		ScanFiltered:      gs.ScanFiltered,
		MemoryInUse:       f.MemoryInUse(),
	}
	var prom bytes.Buffer
	reg.WriteProm(&prom)
	out.metrics = prom.Bytes()
	g.Close()
	tracer.FlushOpen(k.Now())
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	out.events, out.jsonl, out.chrome = ev.Bytes(), jsonl.Bytes(), chrome.Bytes()
	return out
}

// facadeFoldRun drives the same workload through the facade's default
// one-shard engine.
func facadeFoldRun(t *testing.T, idle time.Duration) foldRun {
	t.Helper()
	var out foldRun
	var ev, jsonl, chrome bytes.Buffer
	hf := MustNew(Options{
		Seed:           foldSeed,
		MonitoredSpace: foldSpace,
		Policy:         InternalReflect,
		Guest:          GuestMultiStage,
		IdleTimeout:    idle,
		Metrics:        true,
		EventLog:       &ev,
		TraceOut:       &jsonl,
		TraceChrome:    &chrome,
	})
	if err := hf.InjectExploit(foldAttack, foldVictim); err != nil {
		t.Fatal(err)
	}
	recs, err := hf.GenerateTrace(foldTrace, foldRate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.Replay(SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(foldDrainTo)
	out.stats = hf.Stats()
	out.metrics = hf.MetricsText()
	hf.Close()
	out.events, out.jsonl, out.chrome = ev.Bytes(), jsonl.Bytes(), chrome.Bytes()
	return out
}

// withoutEpochSeries drops the engine's epoch_* profiler series (HELP,
// TYPE, and samples), which the hand-wired kernel never had.
func withoutEpochSeries(prom []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(prom), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "epoch") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// firstDiff names the first differing line of two outputs.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n facade:  %s\n classic: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(al), len(bl))
}

// TestOneShardEngineMatchesClassicWiring pins the fold of the classic
// single-kernel path onto the shard engine: a one-shard engine must be
// byte-identical to a farm wired by hand on one kernel — event log,
// JSONL and Chrome traces, Stats, and every metric series but the
// engine's own epoch profiler. The workload compromises a multi-stage
// guest, so safe-resolver answers and internal reflection are covered,
// under both the default and a 1 s idle timeout.
func TestOneShardEngineMatchesClassicWiring(t *testing.T) {
	for _, idle := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprintf("idle=%v", idle), func(t *testing.T) {
			ref := classicWiringRun(t, idle)
			got := facadeFoldRun(t, idle)
			if ref.stats.InfectedVMs+int(ref.stats.DetectedInfected) == 0 || ref.stats.DNSProxied == 0 ||
				ref.stats.BindingsCreated == 0 {
				t.Fatalf("vacuous reference run: %+v", ref.stats)
			}
			if got.stats != ref.stats {
				t.Errorf("stats diverge:\n facade:  %+v\n classic: %+v", got.stats, ref.stats)
			}
			for _, out := range []struct {
				name     string
				got, ref []byte
			}{
				{"event log", got.events, ref.events},
				{"JSONL trace", got.jsonl, ref.jsonl},
				{"Chrome trace", got.chrome, ref.chrome},
			} {
				if len(out.ref) == 0 {
					t.Errorf("%s: empty reference output", out.name)
				}
				if !bytes.Equal(out.got, out.ref) {
					t.Errorf("%s diverges at %s", out.name, firstDiff(out.got, out.ref))
				}
			}
			if g, r := withoutEpochSeries(got.metrics), withoutEpochSeries(ref.metrics); g != r {
				t.Errorf("metrics diverge at %s", firstDiff([]byte(g), []byte(r)))
			}
		})
	}
}
