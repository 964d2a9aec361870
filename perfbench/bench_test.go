package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinyScale shrinks every workload to a few seconds of simulated time.
const tinyScale = 0.02

func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	b, err := newBench(name, 7, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON keeps the program and the benchmark
// definition at the checkout root in step: the same workloads, and the
// same metric names and units in each mode.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		defs  []metricDef
		units map[string]string
	}{{def.EndToEnd, endToEndUnits}, {def.PerLayer, perLayerUnits}} {
		if len(c.defs) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.defs), len(c.units))
		}
		for _, m := range c.defs {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program %q (reported: %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

// TestTinyWorkloads runs every workload end to end in both modes: all
// output checks run and pass, and every metric the mode promises is
// reported as a finite number.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			b := tinyBench(t, name)
			res, err := b.measure(0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (unit %s)", name, traced, n, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestTracedWiringMatchesFacade pins the traced wiring to the facade:
// on every sequential workload it reproduces the untraced run's counts.
func TestTracedWiringMatchesFacade(t *testing.T) {
	for _, name := range []string{"warm-radiation", "churn", "wire"} {
		b := tinyBench(t, name)
		s, err := b.untraced()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := b.traced()
		if err != nil {
			t.Fatal(err)
		}
		if want := countsOf(s.stats); tr.counts != want || want.InboundPackets == 0 {
			t.Errorf("%s: traced counts %+v, facade %+v", name, tr.counts, want)
		}
	}
}

// dropRecord returns a copy of b whose inputs lack record i.
func dropRecord(b *bench, i int) *bench {
	c := *b
	c.recs = append(c.recs[:i:i], b.recs[i+1:]...)
	if b.frames != nil {
		c.frames = append(c.frames[:i:i], b.frames[i+1:]...)
	}
	return &c
}

func checkFails(t *testing.T, b *bench, samples []sample, trs []*tracedResult, what string) {
	t.Helper()
	res := &result{Correct: true}
	if err := b.check(samples, trs, res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.problems) == 0 {
		t.Errorf("%s: check passed, want a failure", what)
	}
}

// TestChecksRejectTamperedOutput shows that each output check fails
// when the output it guards is altered.
func TestChecksRejectTamperedOutput(t *testing.T) {
	t.Run("traced counts", func(t *testing.T) {
		b := tinyBench(t, "churn")
		s, err := b.untraced()
		if err != nil {
			t.Fatal(err)
		}
		// A traced run that lost one record disagrees with the facade.
		tr, err := dropRecord(b, len(b.recs)/2).traced()
		if err != nil {
			t.Fatal(err)
		}
		checkFails(t, b, []sample{s}, []*tracedResult{tr}, "dropped record in the traced run")
	})
	t.Run("scorecard", func(t *testing.T) {
		b := tinyBench(t, "outbreak")
		s, err := b.untraced()
		if err != nil {
			t.Fatal(err)
		}
		i := len(s.card) / 2
		s.card = append([]byte(nil), s.card...)
		s.card[i] ^= 1
		checkFails(t, b, []sample{s}, nil, "altered scorecard byte")
	})
	t.Run("wire dropped record", func(t *testing.T) {
		b := tinyBench(t, "wire")
		// The sender skips one record; the run is lossless on the wire
		// but no longer equals Replay of the full input.
		s, err := dropRecord(b, 1).untraced()
		if err != nil {
			t.Fatal(err)
		}
		checkFails(t, b, []sample{s}, nil, "record missing from the wire feed")
	})
	t.Run("wire loss", func(t *testing.T) {
		b := tinyBench(t, "wire")
		s, err := b.untraced()
		if err != nil {
			t.Fatal(err)
		}
		s.sent++ // one frame sent that never arrived
		checkFails(t, b, []sample{s}, nil, "lost frame")
	})
}
