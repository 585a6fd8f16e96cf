package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"egoist/internal/plane"
	"egoist/internal/sim"
)

// setupReps is how often each untimed set-up block runs in one run;
// setup_s reports the median block time, summed over the run's blocks.
const setupReps = 3

// repeatSetup runs block setupReps times, adds the median duration to
// setup_s and keeps the last repetition's products (block assigns them).
func (b *bench) repeatSetup(name string, block func() error) error {
	var ts []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if err := block(); err != nil {
			return fmt.Errorf("set-up %s: %w", name, err)
		}
		ts = append(ts, time.Since(t).Seconds())
		b.tr.add(b.tr.id(), 0, "setup."+name, t, time.Now())
	}
	b.values["setup_s"] += median(ts)
	return nil
}

// timeEngine runs one engine call, which returns its own engine time
// and a digest of its result, from a freshly collected heap. The traced
// run first makes the same call untraced, reports traced/untraced - 1 as
// the tracing overhead, and requires both calls to produce the same
// digest (the engines are deterministic).
func (b *bench) timeEngine(call func(tr *tracer) (time.Duration, string, error)) (time.Duration, error) {
	run := func(tr *tracer) (time.Duration, string, error) {
		runtime.GC()
		return call(tr)
	}
	if !b.traced() {
		d, _, err := run(nil)
		return d, b.op(err)
	}
	plain, want, err := run(nil)
	if err := b.op(err); err != nil {
		return 0, err
	}
	traced, got, err := run(b.tr)
	if err == nil && got != want {
		err = fmt.Errorf("traced engine run diverged from the untraced one: %s vs %s", got, want)
	}
	if err := b.op(err); err != nil {
		return 0, err
	}
	b.set("trace.overhead_frac", traced.Seconds()/plain.Seconds()-1, 0)
	return traced, nil
}

// phaseTimes sums the scale engine's OnPhase events per phase and, in
// the traced run, records each as a span under the engine span.
type phaseTimes struct {
	tr     *tracer
	parent int64
	ns     map[string]int64
}

func newPhaseTimes(tr *tracer, parent int64) *phaseTimes {
	return &phaseTimes{tr: tr, parent: parent, ns: map[string]int64{}}
}

func (p *phaseTimes) onPhase(ev sim.PhaseEvent) {
	if ev.Phase == "epoch" {
		return // the per-epoch summary repeats the phases below it
	}
	p.ns[ev.Phase] += ev.NS
	end := time.Now()
	p.tr.add(p.tr.id(), p.parent, "sim."+ev.Phase, end.Add(-time.Duration(ev.NS)), end)
}

// report stores the phase sums and the run's exact counts.
func (p *phaseTimes) report(b *bench, res *sim.ScaleResult) {
	for _, ph := range []string{"propose", "adopt", "rebuild", "churn", "publish"} {
		b.set("sim."+ph+"_s", float64(p.ns[ph])/1e9, 0)
	}
	rewires := 0
	for _, ep := range res.PerEpoch {
		rewires += ep.Rewires
	}
	b.set("sim.epochs", float64(res.Epochs), 0)
	b.set("sim.rewires", float64(rewires), 0)
	b.set("sim.dir_applies", float64(res.DirectoryApplies), 0)
}

// wiringDigest fingerprints a wiring for the determinism check.
func wiringDigest(w [][]int) string {
	h := uint64(14695981039346656037)
	for u, ws := range w {
		mix := func(v int) {
			h ^= uint64(v + 1)
			h *= 1099511628211
		}
		mix(u)
		if ws == nil {
			mix(-2)
		}
		for _, v := range ws {
			mix(v)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// overlayCostSources is the size of the seeded source set overlay_cost
// averages over.
const overlayCostSources = 512

// overlayCost is the mean shortest-path delay over live pairs from a
// seeded set of live sources, on a fresh compile of the overlay.
// Unreachable pairs are left out of the mean and counted.
func overlayCost(snap *plane.Snapshot, seed int64) (mean float64, unreachable int, err error) {
	n := snap.N()
	rng := rand.New(rand.NewSource(seed))
	sum, pairs, sources := 0.0, 0, 0
	for _, src := range rng.Perm(n) {
		if sources == overlayCostSources {
			break
		}
		if !snap.Live(src) {
			continue
		}
		sources++
		for dst := 0; dst < n; dst++ {
			if dst == src || !snap.Live(dst) {
				continue
			}
			c := snap.RouteCost(src, dst)
			if math.IsInf(c, 1) {
				unreachable++
				continue
			}
			sum += c
			pairs++
		}
	}
	if pairs == 0 {
		return 0, unreachable, fmt.Errorf("overlay has no reachable live pair")
	}
	return sum / float64(pairs), unreachable, nil
}
