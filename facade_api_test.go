package potemkin

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/telescope"
)

// TestValidateReportsAllProblems checks that Validate collects every
// configuration error in one pass, one per line, instead of failing on
// the first.
func TestValidateReportsAllProblems(t *testing.T) {
	bad := Options{
		Servers:        -3,
		MonitoredSpace: "garbage",
		SnapshotWarmup: time.Second,
		FullBoot:       true,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted a broken configuration")
	}
	msg := err.Error()
	for _, want := range []string{
		"negative server count",
		"invalid MonitoredSpace",
		"SnapshotWarmup requires flash cloning",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	if lines := strings.Split(msg, "\n"); len(lines) != 3 {
		t.Errorf("want 3 problem lines, got %d:\n%s", len(lines), msg)
	}
	for _, line := range strings.Split(msg, "\n") {
		if !strings.HasPrefix(line, "potemkin: ") {
			t.Errorf("line missing package prefix: %q", line)
		}
	}

	// New must route through Validate.
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "negative server count") {
		t.Errorf("New did not surface Validate errors: %v", err)
	}
	// The zero value (all defaults) must validate clean.
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options failed Validate: %v", err)
	}
}

// TestValidateParallelConstraints covers the Parallel-specific rules.
func TestValidateParallelConstraints(t *testing.T) {
	err := Options{Parallel: true}.Validate()
	if err == nil {
		t.Fatal("Parallel with one shard validated clean")
	}
	if !strings.Contains(err.Error(), "GatewayShards >= 2") {
		t.Errorf("error missing %q:\n%v", "GatewayShards >= 2", err)
	}
	// TraceChrome under Parallel is supported (buffered per shard).
	if err := (Options{Parallel: true, GatewayShards: 4, TraceChrome: &bytes.Buffer{}}).Validate(); err != nil {
		t.Errorf("Parallel+TraceChrome should validate: %v", err)
	}
	// The epoch timeline profiles the parallel engine only.
	if err := (Options{EpochLog: &bytes.Buffer{}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "EpochLog requires Parallel") {
		t.Errorf("EpochLog without Parallel should fail: %v", err)
	}
	if err := (Options{Parallel: true, GatewayShards: 8}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "at least one server per shard") {
		t.Errorf("8 shards over 4 default servers should fail: %v", err)
	}
	if err := (Options{Parallel: true, GatewayShards: 4}).Validate(); err != nil {
		t.Errorf("4 shards over 4 default servers should validate: %v", err)
	}
	// Every shard is its own domain with its own servers, Parallel or
	// not, so the server floor applies to any multi-shard farm.
	if err := (Options{GatewayShards: 8}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "at least one server per shard") {
		t.Errorf("8 non-parallel shards over 4 default servers should fail: %v", err)
	}
}

// TestHooksStruct checks the consolidated Hooks callbacks fire.
func TestHooksStruct(t *testing.T) {
	var viaHooks []string
	var infected int
	hf := MustNew(Options{
		Policy: ReflectSource,
		Hooks: &Hooks{
			OnEgress:   func(p string) { viaHooks = append(viaHooks, p) },
			OnInfected: func(addr string, gen int) { infected++ },
		},
	})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	hf.InjectExploit("198.51.100.7", "10.5.2.3")
	hf.RunFor(2 * time.Second)
	if len(viaHooks) == 0 {
		t.Error("Hooks.OnEgress never fired")
	}
	if infected == 0 {
		t.Error("Hooks.OnInfected never fired")
	}
}

// TestNewErrorClosesCaptures is the regression test for the capture
// leak: when New fails after openCapture already created the trace
// files, the files must be flushed and closed on the way out — a valid
// (empty) capture, not a zero-byte file with its header stuck in a
// buffer.
func TestNewErrorClosesCaptures(t *testing.T) {
	dir := t.TempDir()
	_, err := New(Options{
		CaptureDir:     dir,
		SnapshotWarmup: 500 * time.Millisecond,
		ServerMemory:   1 << 10, // far too small to boot the reference VM
	})
	if err == nil {
		t.Fatal("expected New to fail (reference boot cannot fit in 1 KiB)")
	}
	for _, name := range []string{"in.potm", "tovm.potm", "out.potm"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("capture %s missing: %v", name, err)
		}
		r, err := telescope.NewReader(f)
		if err != nil {
			t.Errorf("capture %s not flushed: %v", name, err)
		} else if err := r.Read(&telescope.Record{}); err == nil {
			t.Errorf("capture %s unexpectedly has records", name)
		}
		f.Close()
	}
}

// TestReplayHaltStopsEarly checks WithHalt actually cuts the replay
// short.
func TestReplayHaltStopsEarly(t *testing.T) {
	hf := MustNew(Options{Seed: 5})
	defer hf.Close()
	recs, err := hf.GenerateTrace(time.Second, 400)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	calls := 0
	n, err := hf.Replay(SliceSource(recs), WithHalt(func() bool {
		calls++
		return calls > 10
	}))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n == 0 || n >= len(recs) {
		t.Errorf("halt did not stop replay early: injected %d of %d", n, len(recs))
	}
}

// parallelFacadeRun drives the same workload through a Parallel
// honeyfarm and returns the stats, snapshot JSON, and event-log bytes.
// When sequentialOracle is set the shard engine runs its epochs
// single-threaded — the byte-identity oracle.
func parallelFacadeRun(t *testing.T, sequentialOracle bool) (Stats, []byte, []byte) {
	t.Helper()
	var ev bytes.Buffer
	hf := MustNew(Options{
		Seed:          9,
		Parallel:      true,
		GatewayShards: 4,
		Policy:        InternalReflect,
		Guest:         GuestMultiStage,
		IdleTimeout:   time.Second,
		EventLog:      &ev,
	})
	if sequentialOracle {
		hf.Internals().Engine.SetSequential(true)
	}
	// One exploit is enough: the multi-stage infection resolves its
	// rendezvous name and fetches a second stage, so the safe-resolver
	// answer and the reflected fetch both cross the epoch barrier. A
	// longer run would cascade reflections exponentially and swamp CI.
	if err := hf.InjectExploit("198.51.100.10", "10.5.7.20"); err != nil {
		t.Fatalf("InjectExploit: %v", err)
	}
	recs, err := hf.GenerateTrace(500*time.Millisecond, 100)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if _, err := hf.Replay(SliceSource(recs)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	hf.RunFor(1500 * time.Millisecond)
	stats := hf.Stats()
	snap, err := hf.MarshalSnapshot()
	if err != nil {
		t.Fatalf("MarshalSnapshot: %v", err)
	}
	hf.Close()
	return stats, snap, ev.Bytes()
}

// TestParallelFacade checks the Options.Parallel path end to end: the
// parallel run matches the single-threaded oracle byte for byte, and
// the workload is not vacuous.
func TestParallelFacade(t *testing.T) {
	seqStats, seqSnap, seqEv := parallelFacadeRun(t, true)
	parStats, parSnap, parEv := parallelFacadeRun(t, false)
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Errorf("stats diverge:\nseq: %v\npar: %v", seqStats, parStats)
	}
	if !bytes.Equal(seqSnap, parSnap) {
		t.Errorf("snapshots diverge:\nseq: %s\npar: %s", seqSnap, parSnap)
	}
	if !bytes.Equal(seqEv, parEv) {
		t.Errorf("event logs diverge (seq %d bytes, par %d bytes)", len(seqEv), len(parEv))
	}
	if parStats.InfectedVMs == 0 && parStats.DetectedInfected == 0 && parStats.BindingsCreated == 0 {
		t.Errorf("vacuous parallel run: %v", parStats)
	}
	if parStats.DNSProxied == 0 {
		t.Errorf("multi-stage guests never used the safe resolver: %v", parStats)
	}
}

// TestParallelInternals checks the Internals surface in Parallel mode:
// the engine carries one domain per shard, each with its own kernel,
// gateway, farm slice, and resolver.
func TestParallelInternals(t *testing.T) {
	hf := MustNew(Options{Parallel: true, GatewayShards: 2, Servers: 2})
	defer hf.Close()
	eng := hf.Internals().Engine
	if eng == nil || eng.Shards() != 2 {
		t.Fatalf("Internals.Engine = %v, want 2 shards", eng)
	}
	for _, d := range eng.Domains() {
		if d.K == nil || d.G == nil || d.F == nil || d.Resolver == nil {
			t.Errorf("domain %d incomplete: %+v", d.Index, d)
		}
	}
	if hf.Resolver() == nil {
		t.Error("Resolver() nil in Parallel mode")
	}
}
