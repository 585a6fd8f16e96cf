// Command perfbench is the repository's outside-in benchmark. One run is
// one process: it builds a workload's inputs from --seed, drives the
// engines and the serving plane through their exported API, checks
// every answer it times, and prints its metrics as the last line of
// standard output. Client and server share the process and talk over
// loopback TCP.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the same workload with per-layer timing and reports the per-layer
// metrics, writing its spans to .bench_build/trace/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	procs    int
	tr       *tracer // nil in the untraced run

	attempted, failed atomic.Int64

	values  map[string]float64 // metric name -> value
	samples map[string]int     // metric name -> sample count behind it
	notes   []string
}

// set records a metric value and, for percentiles and medians, the
// number of samples behind it.
func (b *bench) set(name string, v float64, samples int) {
	b.values[name] = v
	if samples > 0 {
		b.samples[name] = samples
	}
}

// setPct records the p-th percentile of xs.
func (b *bench) setPct(name string, xs []float64, p int) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.set(name, v, len(xs))
	return nil
}

// op counts one operation (a request, a batch, an engine call) and its
// outcome; a non-nil err is a failed operation.
func (b *bench) op(err error) error {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
	}
	return err
}

func (b *bench) traced() bool { return b.tr != nil }

// phaseDur is share of the run's measuring time.
func (b *bench) phaseDur(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

var workloads = map[string]func(*bench) error{
	"converge":    runConverge,
	"churn-serve": runChurnServe,
	"paper":       runPaper,
}

func main() {
	var (
		workload = flag.String("workload", "converge", "workload to run: converge, churn-serve or paper")
		seed     = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds  = flag.Float64("seconds", 10, "measuring time of the serving phases")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int) error {
	run, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: want > 0", seconds)
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: seconds,
		procs:  runtime.GOMAXPROCS(0),
		values: map[string]float64{}, samples: map[string]int{},
	}
	if trace == 1 {
		b.tr = newTracer()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calib0 := calibrate()

	runErr := run(b)

	calib1 := calibrate()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.set("machine.calib_ms", (calib0+calib1)/2, 0)
	b.set("rt.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 0)
	b.set("rt.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, 0)
	if rss, err := peakRSSMiB(); err == nil {
		b.set("peak_rss_mb", rss, 0)
	} else if runErr == nil {
		runErr = err
	}

	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	want := sp.EndToEnd
	if b.traced() {
		want = sp.PerLayer
	}
	var missing []string
	for _, m := range want {
		v, ok := b.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			if !b.traced() {
				continue
			}
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		if !b.traced() && runErr == nil {
			runErr = fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
		} else if b.traced() {
			// A layer this workload bypasses reads 0.
			b.notes = append(b.notes, "not exercised by this workload, reported as 0: "+strings.Join(missing, ", "))
		}
	}
	res.Correct = runErr == nil && res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if b.traced() {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := b.tr.write(path); err != nil && runErr == nil {
			runErr = fmt.Errorf("writing trace: %w", err)
		}
		b.notes = append(b.notes, fmt.Sprintf("spans written to %s (%d dropped)", path, b.tr.dropped))
	}
	if runErr != nil {
		res.Correct = false
	}
	if err := printReport(b, res); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if !res.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// printReport writes the context line (machine stamp, sample counts,
// notes) and then the result as the last line of standard output.
func printReport(b *bench, res result) error {
	names := make([]string, 0, len(b.samples))
	for name := range b.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := make(map[string]int, len(names))
	for _, name := range names {
		counts[name] = b.samples[name]
	}
	ctx := map[string]interface{}{
		"workload": b.workload,
		"seed":     b.seed,
		"traced":   b.traced(),
		"machine":  machineStamp(),
		"samples":  counts,
		"measured": b.values, // every value this run produced, either list
		"notes":    b.notes,
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(ctx); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return w.Flush()
}

// machineStamp describes the box a run was measured on.
func machineStamp() map[string]interface{} {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]interface{}{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"transport":  "client and server in one process over loopback TCP; no real link",
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// calibrate times a fixed CPU kernel owned by the benchmark and returns
// the median of five timings in milliseconds. It measures the machine,
// not the program, so a shift in it across runs is drift, not a
// regression.
func calibrate() float64 {
	var ts []float64
	buf := make([]uint64, 1<<13)
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for it := 0; it < 400; it++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] += x
			}
		}
		calibSink += buf[int(x%uint64(len(buf)))]
		ts = append(ts, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ts)
}

// calibSink keeps the calibration kernel's result live.
var calibSink uint64
