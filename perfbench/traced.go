package main

// The traced run. For the sequential workloads it wires kernel, farm
// and gateway exactly as the facade's non-parallel path does, but puts
// timing decorators on the public seams between the layers:
//
//	gateway.Gateway.HandleInbound   (the replay feed's Emit)
//	gateway.Backend.RequestVM       (+ its ready callback)
//	gateway.VMRef.Deliver / Destroy
//	gateway.Egress.HandleOutbound   (guest traffic leaving the farm)
//	telescope.Source.Read           (SliceSource, or ingest.WireSource)
//
// and drives them with the facade's own telescope.StreamReplayer, timed
// as a whole: its RunUntil calls, less the seam spans nested in them,
// are the kernel's self time.
//
// Spans are accumulated in memory (per seam, with self time = duration
// minus nested seam spans) and summarized when the run ends. The
// outbreak workload runs on the parallel engine, whose seams are not
// reachable from outside; its epoch phases come from Options.EpochLog.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"potemkin"
	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Seams.
const (
	spInbound = iota
	spOutbound
	spSpawn
	spReady
	spDeliver
	spDestroy
	spKernel
	spRead
	nSpans
)

type spanAcc struct{ calls, totalNS, selfNS int64 }

// tracer keeps every seam's spans in memory. The simulation is single
// threaded, so one stack of open spans suffices: each entry collects
// the time of the spans nested in it.
type tracer struct {
	acc     [nSpans]spanAcc
	stack   []int64
	spawned int64 // inbound calls during which the gateway requested a VM
	failed  int64 // ready callbacks carrying an error

	// The timeline: every timelineEvery records, the wall offset and a
	// copy of the seam accumulators — the spans keyed by record index.
	// It feeds the stationarity probe and the written-out span file;
	// the heap peak is sampled at the same points.
	start    time.Time
	tlWall   []int64
	tlPkts   []int64
	tlAcc    [][nSpans]spanAcc
	heapPeak uint64
	rt       runtimeSampler
}

const timelineEvery = 1024

var spanNames = [nSpans]string{"inbound", "outbound", "spawn", "ready", "deliver", "destroy", "kernel", "read"}

func (t *tracer) begin() time.Time {
	t.stack = append(t.stack, 0)
	return time.Now()
}

func (t *tracer) end(kind int, start time.Time) {
	d := int64(time.Since(start))
	n := len(t.stack) - 1
	child := t.stack[n]
	t.stack = t.stack[:n]
	a := &t.acc[kind]
	a.calls++
	a.totalNS += d
	a.selfNS += d - child
	if n > 0 {
		t.stack[n-1] += d
	}
}

// sample takes a timeline sample. Its own time is charged to no seam:
// it counts as a nested span of the one open, and so is unattributed.
func (t *tracer) sample() {
	s := time.Now()
	defer func() {
		if n := len(t.stack); n > 0 {
			t.stack[n-1] += int64(time.Since(s))
		}
	}()
	t.tlWall = append(t.tlWall, int64(time.Since(t.start)))
	t.tlPkts = append(t.tlPkts, t.acc[spInbound].calls)
	t.tlAcc = append(t.tlAcc, t.acc)
	if h := t.rt.heapBytes(); h > t.heapPeak {
		t.heapPeak = h
	}
}

// timelineTSV renders the span timeline: one row per stretch of
// timelineEvery records, with each seam's calls and self time in it.
func (t *tracer) timelineTSV() []byte {
	var b bytes.Buffer
	b.WriteString("first_record\twall_ns")
	for _, n := range spanNames {
		fmt.Fprintf(&b, "\t%s_calls\t%s_self_ns", n, n)
	}
	b.WriteByte('\n')
	for i := 1; i < len(t.tlAcc); i++ {
		fmt.Fprintf(&b, "%d\t%d", (i-1)*timelineEvery, t.tlWall[i]-t.tlWall[i-1])
		for k := range spanNames {
			cur, prev := t.tlAcc[i][k], t.tlAcc[i-1][k]
			fmt.Fprintf(&b, "\t%d\t%d", cur.calls-prev.calls, cur.selfNS-prev.selfNS)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// inbound is the timed gateway.Gateway.HandleInbound.
func (t *tracer) inbound(g *gateway.Gateway) func(sim.Time, *netsim.Packet) {
	return func(now sim.Time, pkt *netsim.Packet) {
		spawns := t.acc[spSpawn].calls
		s := t.begin()
		g.HandleInbound(now, pkt)
		t.end(spInbound, s)
		if t.acc[spSpawn].calls != spawns {
			t.spawned++
		}
	}
}

type tracedBackend struct {
	t *tracer
	b gateway.Backend
}

func (tb tracedBackend) RequestVM(now sim.Time, addr netsim.Addr, hint gateway.SpawnHint, ready func(gateway.VMRef, error)) {
	t := tb.t
	s := t.begin()
	tb.b.RequestVM(now, addr, hint, func(vm gateway.VMRef, err error) {
		if vm != nil {
			vm = tracedVM{t, vm}
		}
		if err != nil {
			t.failed++
		}
		s := t.begin()
		ready(vm, err)
		t.end(spReady, s)
	})
	t.end(spSpawn, s)
}

type tracedVM struct {
	t  *tracer
	vm gateway.VMRef
}

func (tv tracedVM) Deliver(now sim.Time, pkt *netsim.Packet) {
	s := tv.t.begin()
	tv.vm.Deliver(now, pkt)
	tv.t.end(spDeliver, s)
}

func (tv tracedVM) Destroy(now sim.Time) {
	s := tv.t.begin()
	tv.vm.Destroy(now)
	tv.t.end(spDestroy, s)
}

type tracedEgress struct {
	t *tracer
	e gateway.Egress
}

func (te tracedEgress) HandleOutbound(now sim.Time, pkt *netsim.Packet) gateway.Disposition {
	s := te.t.begin()
	d := te.e.HandleOutbound(now, pkt)
	te.t.end(spOutbound, s)
	return d
}

// sequentialFarm is the facade's non-parallel wiring (potemkin.go
// buildSequential) for the options the benchmark uses, with the seams
// decorated.
type sequentialFarm struct {
	k       *sim.Kernel
	f       *farm.Farm
	g       *gateway.Gateway
	inbound func(sim.Time, *netsim.Packet)
}

func newSequentialFarm(o potemkin.Options, t *tracer) (*sequentialFarm, error) {
	space, err := netsim.ParsePrefix(o.MonitoredSpace)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(o.Seed)
	fc := farm.DefaultConfig()
	fc.Servers = o.Servers
	fc.HostConfig.MemoryBytes = o.ServerMemory
	fc.Profile = guest.WindowsXP()
	f, err := farm.New(k, fc)
	if err != nil {
		return nil, err
	}
	gc := gateway.DefaultConfig()
	gc.Space = space
	gc.Policy = gateway.Policy(o.Policy)
	switch {
	case o.IdleTimeout < 0:
		gc.IdleTimeout = 0
	case o.IdleTimeout == 0:
		gc.IdleTimeout = 60 * time.Second
	default:
		gc.IdleTimeout = o.IdleTimeout
	}
	sf := &sequentialFarm{k: k, f: f}
	resolver := dns.NewResolver(space)
	gc.ExternalOut = func(now sim.Time, p *netsim.Packet) {
		if p.Proto == netsim.ProtoUDP && p.Dst == gc.Resolver {
			if resp := resolver.ServePacket(p); resp != nil {
				k.After(time.Millisecond, func(then sim.Time) { sf.inbound(then, resp) })
			}
		}
	}
	sf.g = gateway.New(k, gc, tracedBackend{t, f})
	f.SetGateway(tracedEgress{t, sf.g})
	sf.inbound = t.inbound(sf.g)
	return sf, nil
}

// replay is the facade's sequential Replay: a telescope.StreamReplayer
// feeding HandleInbound, then the default 1 ms epilogue. The whole of
// it is the kernel span, so sim.kernel.self_ns is the replay loop and
// RunUntil minus every seam span nested in them.
func (sf *sequentialFarm) replay(t *tracer, src telescope.Source) (int, error) {
	rp := &telescope.StreamReplayer{K: sf.k, Src: &timedSource{t: t, src: src}, Base: sf.k.Now(), Emit: sf.inbound}
	s := t.begin()
	err := rp.Run()
	sf.k.RunFor(time.Millisecond)
	t.end(spKernel, s)
	t.sample()
	return rp.Injected, err
}

// timedSource is the timed telescope.Source.Read. It also takes the
// timeline sample every timelineEvery records.
type timedSource struct {
	t   *tracer
	src telescope.Source
	n   int
}

func (ts *timedSource) Read(rec *telescope.Record) error {
	if ts.n%timelineEvery == 0 {
		ts.t.sample()
	}
	ts.n++
	s := ts.t.begin()
	err := ts.src.Read(rec)
	ts.t.end(spRead, s)
	return err
}

// counts are the deterministic totals the traced run must reproduce.
type counts struct {
	InboundPackets, BindingsCreated, BindingsRecycled, DeliveredToVM uint64
	PeakVMs                                                          int
}

func countsOf(s potemkin.Stats) counts {
	return counts{s.InboundPackets, s.BindingsCreated, s.BindingsRecycled, s.DeliveredToVM, s.PeakVMs}
}

// tracedResult is one traced run: the per-layer metrics plus what the
// output checks compare.
type tracedResult struct {
	layers   layerMap
	pps      float64 // inbound packets per second of the traced run
	spans    []byte  // the span timeline (TSV), or the epoch log (JSONL)
	counts   counts
	card     []byte // outbreak only
	injected int
	sent     uint64
	ingest   ingest.Stats
}

// traced runs one traced iteration of the workload.
func (b *bench) traced() (*tracedResult, error) {
	if err := settle(); err != nil {
		return nil, err
	}
	if b.name == "outbreak" {
		return b.tracedOutbreak()
	}
	o, err := b.options()
	if err != nil {
		return nil, err
	}
	t := &tracer{}
	t.rt.init()
	sf, err := newSequentialFarm(o, t)
	if err != nil {
		return nil, err
	}
	res := &tracedResult{}
	var l *ingest.Listener
	var snd *ingest.WireSender
	if b.name == "wire" {
		if l, err = ingest.Listen(ingest.Config{Addr: "127.0.0.1:0", Timestamped: true}); err != nil {
			return nil, err
		}
		if snd, err = ingest.DialWire(l.Addr().String(), 1, true); err != nil {
			l.Close()
			return nil, err
		}
		defer snd.Close()
	}
	var sendNS int64
	rt0 := t.rt.read()
	t.start = time.Now()
	if l != nil {
		ws := &ingest.WireSource{L: l}
		_, res.sent, err = serveWire(b.frames, b.recs, snd, &sendNS, ws.Emitted, func() { l.Close() },
			func() (potemkin.WireStats, error) {
				n, err := sf.replay(t, ws)
				return potemkin.WireStats{Injected: n}, err
			})
		res.injected = int(ws.Emitted())
		res.ingest = l.Stats()
	} else {
		res.injected, err = sf.replay(t, potemkin.SliceSource(b.recs))
	}
	if err != nil {
		return nil, err
	}
	wall := float64(time.Since(t.start))
	rt1 := t.rt.read()
	sf.g.Close()

	gs, fs := sf.g.Stats(), sf.f.Stats()
	res.counts = counts{gs.InboundPackets, gs.BindingsCreated, gs.BindingsRecycled, gs.DeliveredToVM, fs.PeakLiveVMs}
	var cow uint64
	for _, h := range sf.f.Hosts() {
		cow += h.Store().Stats().CowCopies
	}

	a := &t.acc
	pkts := float64(a[spInbound].calls)
	var self int64
	for i := range a {
		self += a[i].selfNS
	}
	perPkt := func(ns int64) float64 { return float64(ns) / pkts }
	perCall := func(s spanAcc) float64 { return ratio(float64(s.totalNS), float64(s.calls)) }
	m := emptyLayers()
	m["gateway.inbound.calls"] = pkts
	m["gateway.inbound.self_ns"] = perPkt(a[spInbound].selfNS)
	m["gateway.inbound.spawn_frac"] = float64(t.spawned) / pkts
	m["gateway.outbound.calls"] = float64(a[spOutbound].calls)
	m["gateway.outbound.self_ns"] = perPkt(a[spOutbound].selfNS)
	m["farm.spawn.calls"] = float64(a[spSpawn].calls)
	m["farm.spawn.ns"] = perCall(a[spSpawn])
	m["farm.spawn.failed"] = float64(t.failed)
	m["farm.ready.self_ns"] = perPkt(a[spReady].selfNS)
	m["farm.destroy.calls"] = float64(a[spDestroy].calls)
	m["farm.destroy.ns"] = perCall(a[spDestroy])
	m["mem.cow_copies_per_vm"] = ratio(float64(cow), float64(fs.Spawns))
	m["guest.deliver.calls"] = float64(a[spDeliver].calls)
	m["guest.deliver.self_ns"] = perPkt(a[spDeliver].selfNS)
	m["sim.kernel.self_ns"] = perPkt(a[spKernel].selfNS)
	m["ingest.read_wait_ns"] = perPkt(a[spRead].selfNS)
	m["ingest.read_wait_frac"] = float64(a[spRead].selfNS) / wall
	if l != nil {
		m["ingest.queue_hwm"] = float64(res.ingest.QueueHWM)
		m["ingest.dropped"] = float64(res.ingest.Dropped)
		m["ingest.frame_errors"] = float64(res.ingest.FrameErrors)
		m["ingest.seq_gaps"] = float64(res.ingest.SeqGaps)
		m["ingest.send_ns"] = ratio(float64(sendNS), float64(res.sent))
	}
	m["unattributed_frac"] = 1 - float64(self)/wall
	m["stationarity_ratio"] = stationarity(t.tlWall, t.tlPkts)
	t.rt.fill(m, rt0, rt1, t.heapPeak)
	res.spans = t.timelineTSV()
	res.layers = m
	res.pps = pkts / (wall / 1e9)
	return res, nil
}

// epochRecorder is the Options.EpochLog writer: it keeps the timeline
// in memory and, on every write (the engine's buffered writer flushes
// every few dozen epochs), samples wall time and inbound packets for
// the stationarity probe.
type epochRecorder struct {
	buf     bytes.Buffer
	start   time.Time
	inbound func() uint64
	tlWall  []int64
	tlPkts  []int64
	heap    uint64
	rt      *runtimeSampler
}

func (e *epochRecorder) Write(p []byte) (int, error) {
	if e.inbound != nil {
		e.tlWall = append(e.tlWall, int64(time.Since(e.start)))
		e.tlPkts = append(e.tlPkts, int64(e.inbound()))
		if h := e.rt.heapBytes(); h > e.heap {
			e.heap = h
		}
	}
	return e.buf.Write(p)
}

const compileSamples = 5

// tracedOutbreak runs the campaign on the parallel engine with the
// epoch timeline on.
func (b *bench) tracedOutbreak() (*tracedResult, error) {
	o, err := b.options()
	if err != nil {
		return nil, err
	}
	rt := &runtimeSampler{}
	rt.init()
	rec := &epochRecorder{rt: rt}
	o.EpochLog = rec
	space, err := netsim.ParsePrefix(o.MonitoredSpace)
	if err != nil {
		return nil, err
	}
	// The compile New does, timed on its own; a median of a few.
	var compiles []float64
	for i := 0; i < compileSamples; i++ {
		cstart := time.Now()
		if _, err := scenario.Compile(o.Scenario, o.Seed, space); err != nil {
			return nil, err
		}
		compiles = append(compiles, float64(time.Since(cstart)))
	}

	hf, err := potemkin.New(o)
	if err != nil {
		return nil, err
	}
	inbound := hf.Metrics().Counter("gateway_inbound_packets_total")
	rec.inbound = inbound.Load
	rt0 := rt.read()
	rec.start = time.Now()
	card, err := hf.RunScenario()
	wall := float64(time.Since(rec.start))
	rt1 := rt.read()
	rec.inbound = nil // Close flushes the rest of the timeline: not run time
	if err != nil {
		hf.Close()
		return nil, err
	}
	st := hf.Stats()
	hf.Close()
	res := &tracedResult{counts: countsOf(st)}
	var buf bytes.Buffer
	if err := card.WriteJSON(&buf); err != nil {
		return nil, err
	}
	res.card = buf.Bytes()
	res.spans = append([]byte(nil), rec.buf.Bytes()...)

	var n, simNS, advance, wait, exch, msgs, epochWall float64
	dec := json.NewDecoder(&rec.buf)
	for {
		var s metrics.EpochSample
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("epoch log: %w", err)
		}
		n++
		simNS += float64(s.EndNS - s.StartNS)
		for _, v := range s.AdvanceNS {
			advance += float64(v)
		}
		for _, v := range s.BarrierWaitNS {
			wait += float64(v)
		}
		exch += float64(s.ExchangeNS)
		msgs += float64(s.ExchangeMsgs)
		epochWall += float64(s.WallNS)
	}
	if n == 0 {
		return nil, errors.New("epoch log is empty")
	}
	pkts := float64(st.InboundPackets)
	m := emptyLayers()
	m["epoch.count"] = n
	m["epoch.sim_ms_mean"] = simNS / n / 1e6
	m["epoch.advance_ns"] = advance / n
	m["epoch.barrier_wait_ns"] = wait / n
	m["epoch.barrier_wait_frac"] = ratio(wait, advance+wait)
	m["epoch.exchange_ns"] = exch / n
	m["epoch.exchange_msgs"] = msgs
	m["setup.compile_ns"] = median(compiles)
	m["unattributed_frac"] = 1 - epochWall/wall
	m["stationarity_ratio"] = stationarity(rec.tlWall, rec.tlPkts)
	rt.fill(m, rt0, rt1, rec.heap)
	res.layers = m
	res.pps = pkts / (wall / 1e9)
	return res, nil
}

// stationarity is the per-packet cost of the second half of a run over
// that of the first half, from a (wall, packets) timeline: 1 for a
// stationary workload, above 1 when cost grows with run length.
func stationarity(wall, pkts []int64) float64 {
	if len(wall) < 2 {
		return 1
	}
	total := pkts[len(pkts)-1]
	half := float64(total) / 2
	i := sort.Search(len(pkts), func(i int) bool { return float64(pkts[i]) >= half })
	if i == 0 || i >= len(pkts) {
		return 1
	}
	// Interpolate the wall time at which half the packets were done.
	p0, p1 := float64(pkts[i-1]), float64(pkts[i])
	w0, w1 := float64(wall[i-1]), float64(wall[i])
	wh := w0
	if p1 > p0 {
		wh = w0 + (w1-w0)*(half-p0)/(p1-p0)
	}
	first := wh / half
	second := (float64(wall[len(wall)-1]) - wh) / (float64(total) - half)
	return ratio(second, first)
}

// runtimeSampler reads the Go runtime's GC and heap figures.
type runtimeSampler struct {
	s [4]rtmetrics.Sample
}

func (r *runtimeSampler) init() {
	r.s[0].Name = "/gc/cycles/total:gc-cycles"
	r.s[1].Name = "/cpu/classes/gc/total:cpu-seconds"
	r.s[2].Name = "/cpu/classes/total:cpu-seconds"
	r.s[3].Name = "/memory/classes/heap/objects:bytes"
}

type rtPoint struct {
	gcs           uint64
	gcCPU, allCPU float64
	heap          uint64
}

func (r *runtimeSampler) read() rtPoint {
	rtmetrics.Read(r.s[:])
	return rtPoint{r.s[0].Value.Uint64(), r.s[1].Value.Float64(), r.s[2].Value.Float64(), r.s[3].Value.Uint64()}
}

func (r *runtimeSampler) heapBytes() uint64 {
	rtmetrics.Read(r.s[3:])
	return r.s[3].Value.Uint64()
}

func (r *runtimeSampler) fill(m layerMap, p0, p1 rtPoint, heapPeak uint64) {
	m["runtime.gc_cycles"] = float64(p1.gcs - p0.gcs)
	m["runtime.gc_cpu_frac"] = ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU)
	if p1.heap > heapPeak {
		heapPeak = p1.heap
	}
	m["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}
