package main

import (
	"fmt"
	"time"

	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// Scale-engine workload sizes: ROADMAP's reference n, k and sample.
const (
	scaleN = 3000
	scaleK = 8
	scaleM = 200
)

// convergeEpochCap bounds the converge workload's engine run. At n=3000
// the engine's own test (at most 1% of nodes re-wiring) first passes
// after the third or fourth epoch, so the cap makes the engine work
// nearly the same on every seed; sim.epochs reports where it stopped.
const convergeEpochCap = 3

// runConverge: the scale engine converges a fresh n=3000 overlay with
// every core proposing, then the final wiring is compiled and served
// from a fixed snapshot.
func runConverge(b *bench) error {
	var (
		net *underlay.Lite
		ps  *pairStream
	)
	err := b.repeatSetup("inputs", func() error {
		var err error
		net, err = underlay.NewLite(scaleN, b.seed+1)
		ps = newPairStream(scaleN, streamBatches, batchPairs, b.seed+7, nil)
		return err
	})
	if err != nil {
		return err
	}
	var res *sim.ScaleResult
	var phases *phaseTimes
	engine, err := b.timeEngine(func(tr *tracer) (time.Duration, string, error) {
		engineID := tr.id()
		phases = newPhaseTimes(tr, engineID)
		cfg := sim.ScaleConfig{
			N: scaleN, K: scaleK, Seed: b.seed,
			Sample:    sampling.Spec{Strategy: sampling.Demand, M: scaleM},
			MaxEpochs: convergeEpochCap, Workers: b.procs, Net: net,
		}
		if tr != nil {
			cfg.OnPhase = phases.onPhase
		}
		t := time.Now()
		r, err := sim.RunScale(cfg)
		d := time.Since(t)
		tr.add(engineID, 0, "sim.RunScale", t, t.Add(d))
		if err != nil {
			return d, "", err
		}
		res = r
		return d, wiringDigest(r.Wiring), nil
	})
	if err != nil {
		return err
	}
	b.set("engine_s", engine.Seconds(), 0)
	phases.report(b, res)
	return b.serveFinal(res.Wiring, net, ps, serveOpts{binBatch: true, overlayCost: true})
}

// serveFinal builds the reference and a fixed served snapshot of the
// engine's final wiring (untimed set-up), runs the timed serving phases
// and, in the traced run, the in-process layer timings.
func (b *bench) serveFinal(wiring [][]int, net plane.DelayNet, ps *pairStream, opts serveOpts) error {
	var fs *fixedServe
	var compiles []float64
	err := b.repeatSetup("serve", func() error {
		if fs != nil {
			fs.ep.close()
		}
		var ms float64
		var err error
		fs, ms, err = b.setupFixed(wiring, net, newReference(wiring, nil, net, ps))
		compiles = append(compiles, ms)
		return err
	})
	if err != nil {
		return err
	}
	defer fs.ep.close()
	b.set("plane.compile_ms", median(compiles), len(compiles))
	if opts.overlayCost {
		cost, unreachable, err := overlayCost(fs.ref.snap, b.seed+13)
		if err != nil {
			return err
		}
		b.set("overlay_cost", cost, 0)
		if unreachable > 0 {
			b.notes = append(b.notes, fmt.Sprintf("overlay_cost left out %d unreachable live pairs", unreachable))
		}
	}
	if err := b.measureFixed(fs, opts); err != nil {
		return err
	}
	if b.traced() {
		return b.measureLayers(fs)
	}
	return nil
}
