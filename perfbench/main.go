// Command perfbench is the repository benchmark: it runs one named
// workload through the public potemkin facade (New, Replay,
// RunScenario, StartWire/Serve, Stats, Close), checks the program's
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with -trace 1 they are the per-layer breakdown from
// a separate traced run (traced.go). A failed output check prints the
// JSON with "correct": false and exits 1.
//
//	go run . -workload warm-radiation -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "with -trace 1, write the last traced run's span timeline into this directory")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fatalf("-trace must be 0 or 1")
	}
	b, err := newBench(*workload, *seed, 1)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := b.measure(time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if *spansDir != "" && res.spans != nil {
		ext := ".spans.tsv"
		if *workload == "outbreak" {
			ext = ".epochs.jsonl"
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d%s", *workload, *seed, ext))
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(path, res.spans, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// Metric units. The end-to-end set is what a user of the honeyfarm
// sees; the per-layer set is the traced run's breakdown.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"inbound_pps":         "packets/s",
	"peak_rss_mb":         "MiB",
	"alloc_bytes_per_pkt": "B",
	"allocs_per_pkt":      "count",
}

var perLayerUnits = map[string]string{
	"gateway.inbound.calls":      "count",
	"gateway.inbound.self_ns":    "ns/pkt",
	"gateway.inbound.spawn_frac": "ratio",
	"gateway.outbound.calls":     "count",
	"gateway.outbound.self_ns":   "ns/pkt",
	"farm.spawn.calls":           "count",
	"farm.spawn.ns":              "ns/call",
	"farm.spawn.failed":          "count",
	"farm.ready.self_ns":         "ns/pkt",
	"farm.destroy.calls":         "count",
	"farm.destroy.ns":            "ns/call",
	"mem.cow_copies_per_vm":      "count",
	"guest.deliver.calls":        "count",
	"guest.deliver.self_ns":      "ns/pkt",
	"sim.kernel.self_ns":         "ns/pkt",
	"epoch.count":                "count",
	"epoch.sim_ms_mean":          "ms",
	"epoch.advance_ns":           "ns/epoch",
	"epoch.barrier_wait_ns":      "ns/epoch",
	"epoch.barrier_wait_frac":    "ratio",
	"epoch.exchange_ns":          "ns/epoch",
	"epoch.exchange_msgs":        "count",
	"ingest.read_wait_ns":        "ns/pkt",
	"ingest.read_wait_frac":      "ratio",
	"ingest.queue_hwm":           "count",
	"ingest.dropped":             "count",
	"ingest.frame_errors":        "count",
	"ingest.seq_gaps":            "count",
	"ingest.send_ns":             "ns/pkt",
	"setup.compile_ns":           "ns",
	"setup.new_ns":               "ns",
	"runtime.gc_cycles":          "count",
	"runtime.gc_cpu_frac":        "ratio",
	"runtime.heap_peak_mb":       "MiB",
	"unattributed_frac":          "ratio",
	"tracing_overhead_frac":      "ratio",
	"stationarity_ratio":         "ratio",
	"failed_frac":                "ratio",
}

// layerMap holds per-layer values by metric name.
type layerMap map[string]float64

// emptyLayers starts every per-layer metric at zero: a layer the
// workload does not exercise (or whose seams its engine hides) reads 0.
func emptyLayers() layerMap {
	m := layerMap{}
	for k := range perLayerUnits {
		m[k] = 0
	}
	return m
}

// Iteration limits: a run takes at least minIters measured iterations
// (medians need a few). Set-up is short and noisy, so every iteration
// is followed by setupsPerIter set-up-only samples, spreading them over
// the whole run, and a run takes at least setupSamples in all.
const (
	minIters      = 3
	setupsPerIter = 10
	setupSamples  = 60
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	spans    []byte // the last traced run's span timeline (trace mode)
}

// measure runs the workload for about d: untraced iterations (and, in
// trace mode, traced ones), extra set-up samples, then the output
// checks.
func (b *bench) measure(d time.Duration, traced bool) (*result, error) {
	budget := d
	if traced {
		budget = d / 2 // the other half goes to the traced run
	}
	var samples []sample
	var setups, news []float64
	setupOnly := func() error {
		d, nd, err := b.setupOnly()
		setups = append(setups, d.Seconds())
		news = append(news, float64(nd))
		return err
	}
	start := time.Now()
	for another(len(samples), minIters, start, budget) {
		s, err := b.untraced()
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		setups = append(setups, s.setup.Seconds())
		news = append(news, float64(s.newDur))
		fmt.Fprintf(os.Stderr, "iteration %d: setup %v, run %v, %.0f packets/s, peak RSS %.0f MiB\n",
			len(samples), s.setup, s.run, float64(s.packets())/s.run.Seconds(), s.rssMB)
		for i := 0; i < setupsPerIter; i++ {
			if err := setupOnly(); err != nil {
				return nil, err
			}
		}
	}
	for len(setups) < setupSamples {
		if err := setupOnly(); err != nil {
			return nil, err
		}
	}

	// The traced run feeds the per-layer metrics and the output checks
	// of the sequential workloads; an untraced run still makes one.
	var trs []*tracedResult
	tstart, tbudget := time.Now(), d-budget // 0 unless traced
	for another(len(trs), 1, tstart, tbudget) {
		tr, err := b.traced()
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var pps, rss, allocB, allocs []float64
	for _, s := range samples {
		res.Attempted += s.attempted()
		res.Failed += s.failed()
		pkts := float64(s.packets())
		pps = append(pps, pkts/s.run.Seconds())
		rss = append(rss, s.rssMB)
		allocB = append(allocB, float64(s.allocB)/pkts)
		allocs = append(allocs, float64(s.allocs)/pkts)
	}
	if traced {
		layers := layerMap{}
		for name := range perLayerUnits {
			var vs []float64
			for _, tr := range trs {
				vs = append(vs, tr.layers[name])
			}
			layers[name] = median(vs)
		}
		var tpps []float64
		for _, tr := range trs {
			tpps = append(tpps, tr.pps)
		}
		layers["tracing_overhead_frac"] = 1 - median(tpps)/median(pps)
		// New compiles the scenario; the compile is its own metric.
		layers["setup.new_ns"] = median(news) - layers["setup.compile_ns"]
		layers["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
		for name, unit := range perLayerUnits {
			res.Metrics[name] = metric{layers[name], unit}
		}
		res.spans = trs[len(trs)-1].spans
	} else {
		for name, v := range map[string]float64{
			"setup_s":             median(setups),
			"inbound_pps":         median(pps),
			"peak_rss_mb":         median(rss),
			"alloc_bytes_per_pkt": median(allocB),
			"allocs_per_pkt":      median(allocs),
		} {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
	}
	if err := b.check(samples, trs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// another reports whether to start iteration n+1 of a loop begun at
// start: always while n < min, then only if it is expected to end
// within budget.
func another(n, min int, start time.Time, budget time.Duration) bool {
	if n < min {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(n) <= budget
}

func (r *result) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, _ := json.Marshal(r) // plain maps and numbers: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// settle brings the process to the same state before every measured
// iteration, that of a fresh process: the previous iteration's garbage
// collected and returned to the OS, and the kernel's peak-RSS mark
// reset so each iteration's peak is its own. It collects twice:
// objects parked in a sync.Pool survive one collection and can keep the
// previous farm reachable (the outbreak's peak then doubles to 2 GiB).
func settle() error {
	runtime.GC()
	debug.FreeOSMemory() // the second collection
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Without the
	// reset the reported peak would be the whole process's, so a failed
	// reset fails the run.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
