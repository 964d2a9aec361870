package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"potemkin"
	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"warm-radiation", "churn", "outbreak", "wire"}

// bench is one workload's generated inputs plus the facade
// configuration that runs them. Everything here is a pure function of
// (name, seed, scale): the program under test only ever sees recs, the
// scenario plan it compiles, or the frames the sender puts on the wire.
type bench struct {
	name string
	seed uint64

	space string
	idle  time.Duration
	recs  []potemkin.TraceRecord
	// frames holds each record's inner IPv4 bytes, marshaled before
	// timing starts so the wire sender allocates nothing per packet.
	frames [][]byte
}

// newBench generates the inputs of the named workload. scale shrinks
// the run: the benchmark runs at 1, the tests at a few percent.
func newBench(name string, seed uint64, scale float64) (*bench, error) {
	b := &bench{name: name, seed: seed}
	gen := telescope.DefaultGenConfig()
	gen.Seed = seed
	switch name {
	case "warm-radiation", "wire":
		// A /22 fed 5000 pps of telescope radiation for 60 s: every
		// address is cloned once, then nearly every packet hits a live
		// binding (the read-heavy fast path).
		b.space = "10.5.0.0/22"
		gen.Duration = scaled(60*time.Second, scale)
		gen.Rate = 5000
		gen.HotAddresses = 1024
	case "churn":
		// Radiation over the /16 (the generator's default sweep and
		// background mix) with a 1 s idle timeout: about half the
		// packets create a binding and nearly every binding is
		// recycled, with a bounded live set.
		b.space = "10.5.0.0/16"
		b.idle = time.Second
		gen.Duration = scaled(30*time.Second, scale)
		gen.Rate = 2000
	case "outbreak":
		// The p2p campaign over a /21 (a /24 when shrunk for tests):
		// the plan is compiled by potemkin.New from the seed.
		b.space = "10.5.0.0/21"
		if scale < 1 {
			b.space = "10.5.0.0/24"
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	var err error
	gen.Space, err = netsim.ParsePrefix(b.space)
	if err != nil {
		return nil, err
	}
	if b.recs, err = telescope.Generate(gen); err != nil {
		return nil, err
	}
	if name == "wire" {
		b.frames = make([][]byte, len(b.recs))
		for i := range b.recs {
			p := b.recs[i].Packet()
			b.frames[i] = make([]byte, p.WireLen())
			p.MarshalInto(b.frames[i])
		}
	}
	return b, nil
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// options is the facade configuration of one run. Servers and memory
// are spelled out so the traced wiring (traced.go) can build the same
// farm without relying on the facade's defaults.
func (b *bench) options() (potemkin.Options, error) {
	o := potemkin.Options{
		Seed:           b.seed,
		MonitoredSpace: b.space,
		Servers:        4,
		ServerMemory:   16 << 30,
		Policy:         potemkin.InternalReflect,
		IdleTimeout:    b.idle,
	}
	switch b.name {
	case "outbreak":
		sc, err := potemkin.LoadScenario("p2p")
		if err != nil {
			return o, err
		}
		o.Scenario = sc
		o.GatewayShards = 2
		o.Parallel = true
	case "wire":
		o.Wire = &potemkin.WireOptions{Addr: "127.0.0.1:0"}
	}
	return o, nil
}

// sample is one untraced iteration: set-up, then the run phase.
type sample struct {
	setup  time.Duration
	newDur time.Duration // the part of setup spent in potemkin.New
	run    time.Duration
	stats  potemkin.Stats
	shed   uint64
	rssMB  float64
	allocB uint64
	allocs uint64
	// card is the outbreak scorecard as JSON.
	card []byte
	// sent and wire are the wire workload's sender count and listener
	// accounting.
	sent uint64
	wire potemkin.WireStats
}

// attempted and failed are the operation counts behind failed_frac:
// bindings (and the spawn failures or sheds among them) for the replay
// workloads, frames sent (and lost) for wire.
func (s *sample) attempted() uint64 {
	if s.sent > 0 {
		return s.sent
	}
	return s.stats.BindingsCreated
}

func (s *sample) failed() uint64 {
	if s.sent > 0 {
		return s.sent - uint64(s.wire.Injected)
	}
	return s.stats.SpawnFailures + s.shed
}

// packets is the run phase's inbound packet count: every packet the
// gateway dispatched, or for wire the frames injected.
func (s *sample) packets() uint64 {
	if s.sent > 0 {
		return uint64(s.wire.Injected)
	}
	return s.stats.InboundPackets
}

// setUp builds the honeyfarm the way a user would, timing exactly the
// set-up a user pays: scenario load and compile, New, and StartWire.
// newDur is the part spent in New (which compiles the scenario).
func (b *bench) setUp() (hf *potemkin.Honeyfarm, ws *potemkin.WireServer, setup, newDur time.Duration, err error) {
	start := time.Now()
	o, err := b.options()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	newStart := time.Now()
	hf, err = potemkin.New(o)
	newDur = time.Since(newStart)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if o.Wire != nil {
		if ws, err = hf.StartWire(); err != nil {
			hf.Close()
			return nil, nil, 0, 0, err
		}
	}
	return hf, ws, time.Since(start), newDur, nil
}

// setupOnly is one extra set-up sample (set-up time is short and
// noisy, so a run takes more samples of it than of the run phase).
func (b *bench) setupOnly() (setup, newDur time.Duration, err error) {
	if err := settle(); err != nil {
		return 0, 0, err
	}
	hf, ws, setup, newDur, err := b.setUp()
	if err != nil {
		return 0, 0, err
	}
	if ws != nil {
		ws.Stop()
	}
	hf.Close()
	return setup, newDur, nil
}

// untraced runs one measured iteration through the public facade.
func (b *bench) untraced() (sample, error) {
	var s sample
	if err := settle(); err != nil {
		return s, err
	}
	hf, ws, setup, newDur, err := b.setUp()
	if err != nil {
		return s, err
	}
	defer hf.Close()
	s.setup, s.newDur = setup, newDur

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	switch b.name {
	case "outbreak":
		start := time.Now()
		card, err := hf.RunScenario()
		s.run = time.Since(start)
		if err != nil {
			return s, err
		}
		var buf bytes.Buffer
		if err := card.WriteJSON(&buf); err != nil {
			return s, err
		}
		s.card = buf.Bytes()
	case "wire":
		snd, err := ingest.DialWire(ws.Addr().String(), 1, true)
		if err != nil {
			ws.Stop()
			return s, err
		}
		defer snd.Close()
		delivered := func() uint64 { return ws.Stats().Ingest.Delivered }
		start := time.Now()
		s.wire, s.sent, err = serveWire(b.frames, b.recs, snd, nil, delivered, ws.Stop,
			func() (potemkin.WireStats, error) { return ws.Serve() })
		s.run = time.Since(start)
		if err != nil {
			return s, err
		}
	default:
		start := time.Now()
		_, err := hf.Replay(potemkin.SliceSource(b.recs))
		s.run = time.Since(start)
		if err != nil {
			return s, err
		}
	}
	runtime.ReadMemStats(&m1)
	if s.rssMB, err = peakRSSMB(); err != nil {
		return s, err
	}
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.allocs = m1.Mallocs - m0.Mallocs
	s.stats = hf.Stats()
	s.shed = hf.Snapshot().BindingsShed
	return s, nil
}

// wireWindow is the sender's closed-loop window: at most this many
// frames are sent but not yet delivered to the simulation. It is under
// the listener's 4096-frame queues and the 4 MiB socket buffer it asks
// for (about 2.5 MiB of small datagrams at most), so a correct listener
// never drops.
const wireWindow = 2048

// wirePoll is how often a sender with a full window looks again. Half a
// window takes about 10 ms to drain at 100k packets/s, so the
// simulation does not wait on a sleeping sender even when the host is
// busy and sleeps overrun.
const wirePoll = 200 * time.Microsecond

// wireStall ends the feed when no frame has been delivered for this
// long: frames the listener lost never arrive, and the output check
// then reports them instead of the run hanging.
const wireStall = time.Second

// serveWire runs the closed-loop sender on its own goroutine while serve
// drives the simulation, and returns serve's stats and the frames sent.
// sendNS, when non-nil, accumulates the sender's SendRaw time.
func serveWire(frames [][]byte, recs []potemkin.TraceRecord, snd *ingest.WireSender, sendNS *int64,
	delivered func() uint64, stop func(), serve func() (potemkin.WireStats, error)) (potemkin.WireStats, uint64, error) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	errStalled := errors.New("wire: stalled")
	go func() {
		defer stop()
		// wait blocks until fewer than n sent frames are undelivered.
		// Sleep rather than spin: a spinning sender would hold one of
		// the two cores the listener and the simulation need.
		var seen uint64
		wait := func(n uint64) error {
			progress := time.Now()
			for seen = delivered(); snd.Sent-seen >= n; {
				select {
				case <-quit:
					return errors.New("wire: serve ended before the sender finished")
				default:
				}
				time.Sleep(wirePoll)
				if d := delivered(); d != seen {
					seen, progress = d, time.Now()
				} else if time.Since(progress) > wireStall {
					return errStalled
				}
			}
			return nil
		}
		for i := range frames {
			// A full window refills once half of it has drained, so
			// the sender polls the listener once per half window, not
			// once per frame.
			if snd.Sent-seen >= wireWindow {
				if err := wait(wireWindow / 2); err != nil {
					done <- err
					return
				}
			}
			var t0 time.Time
			if sendNS != nil {
				t0 = time.Now()
			}
			if err := snd.SendRaw(recs[i].At, frames[i]); err != nil {
				done <- err
				return
			}
			if sendNS != nil {
				*sendNS += int64(time.Since(t0))
			}
		}
		// Stop closes the socket, discarding whatever it still buffers:
		// wait for the last frame to reach the simulation first.
		done <- wait(1)
	}()
	ws, err := serve()
	close(quit)
	if serr := <-done; err == nil && serr != errStalled {
		err = serr
	}
	return ws, snd.Sent, err
}
