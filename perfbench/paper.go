package main

import (
	"fmt"
	"math"
	"time"

	"egoist"
	"egoist/internal/core"
	"egoist/internal/plane"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// The paper's deployment: 50 nodes, 5 neighbors each, best response on
// pinged delays, 10 warm-up and 10 measured epochs under PlanetLab-like
// churn (sessions of 25 epochs on average, 3 off).
const (
	paperN       = 50
	paperK       = 5
	paperWarm    = 10
	paperMeasure = 10
	paperOn      = 25
	paperOff     = 3
)

// paperInstances is the number of seeded deployments one paper run
// plays. A single 50-node deployment's engine time and overlay cost
// swing by 15-20% from seed to seed; the mean over eight settles them.
const paperInstances = 8

// paperDeployment is one seeded instance of the paper workload.
type paperDeployment struct {
	cfg sim.Config
	net *underlay.Underlay // the engine's own underlay at time zero
}

// runPaper: the full-information engine at the paper's deployment size
// over several seeded deployments, then the first deployment's final
// wiring served from a fixed snapshot, queried a full route table per
// batch.
func runPaper(b *bench) error {
	var (
		deps []paperDeployment
		ps   *pairStream
	)
	err := b.repeatSetup("inputs", func() error {
		deps = deps[:0]
		for i := 0; i < paperInstances; i++ {
			seed := b.seed*paperInstances + int64(i)
			sched, err := egoist.MakeChurn(paperN, paperWarm+paperMeasure, paperOn, paperOff, seed+1)
			if err != nil {
				return err
			}
			net, err := egoist.NewUnderlay(paperN, seed+1)
			if err != nil {
				return err
			}
			deps = append(deps, paperDeployment{net: net, cfg: sim.Config{
				N: paperN, K: paperK, Seed: seed, Metric: sim.DelayPing,
				Policy: core.BRPolicy{}, WarmEpochs: paperWarm, MeasureEpochs: paperMeasure,
				Churn: sched, Workers: b.procs,
			}})
		}
		ps = newTableStream(paperN, tableBatches, b.seed+7)
		return nil
	})
	if err != nil {
		return err
	}
	var (
		results []*sim.Result
		epochMS []float64
		pubs    []float64
	)
	engine, err := b.timeEngine(func(tr *tracer) (time.Duration, string, error) {
		results = results[:0]
		var total time.Duration
		digest := ""
		for _, dep := range deps {
			c := dep.cfg
			engineID := tr.id()
			var last time.Time
			published := 0
			if tr != nil {
				c.OnEpoch = func(epoch int, _ [][]int, _ []bool) {
					now := time.Now()
					if epoch >= 0 {
						epochMS = append(epochMS, float64(now.Sub(last).Nanoseconds())/1e6)
						tr.add(tr.id(), engineID, "sim.epoch", last, now)
					}
					last = now
				}
				c.OnPublish = func(sim.Publication) { published++ }
			}
			t := time.Now()
			res, err := sim.Run(c)
			d := time.Since(t)
			tr.add(engineID, 0, "sim.Run", t, t.Add(d))
			if err != nil {
				return 0, "", err
			}
			total += d
			results = append(results, res)
			digest += fmt.Sprintf("%x/%s;", math.Float64bits(res.Cost.Mean), wiringDigest(res.FinalWiring))
			if tr != nil {
				pubs = append(pubs, float64(published))
			}
		}
		return total / paperInstances, digest, nil
	})
	if err != nil {
		return err
	}
	b.set("engine_s", engine.Seconds(), paperInstances)
	if b.traced() {
		if err := b.setPct("sim.full_epoch_ms_p50", epochMS, 50); err != nil {
			return err
		}
		b.set("sim.full_publications", median(pubs), len(pubs))
	}
	sum := 0.0
	for i, res := range results {
		cost, unreachable, err := overlayCost(plane.Compile(0, res.FinalWiring, nil, deps[i].net, plane.Options{}), b.seed+13)
		if err != nil {
			return err
		}
		if unreachable > 0 {
			b.notes = append(b.notes, fmt.Sprintf("deployment %d: overlay_cost left out %d unreachable live pairs", i, unreachable))
		}
		sum += cost
	}
	b.set("overlay_cost", sum/paperInstances, paperInstances)
	return b.serveFinal(results[0].FinalWiring, deps[0].net, ps, serveOpts{binBatch: true})
}
