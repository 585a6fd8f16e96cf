package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"egoist/internal/churn"
	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// churnEpochs is the churn-serve engine's fixed epoch count; each epoch
// publishes once per stagger sub-round plus once after its final churn
// drain (94 publications per epoch at n=3000, so ten or more lie beyond
// the lag's 90th percentile).
const churnEpochs = 2

// finalPassBatches is the length of the post-engine pass that checks
// the reader's answers against a fresh compile of the final wiring.
const finalPassBatches = 64

// runChurnServe: the scale engine plays a fixed number of epochs under
// background churn and publishes every sub-round into a plane.Server by
// Snapshot.Patch and Server.Publish, while one closed-loop client reads
// route batches over one TCP connection. The engine has one worker, so
// engine and reader together use at most two cores.
func runChurnServe(b *bench) error {
	var (
		net   *underlay.Lite
		sched *churn.Schedule
		ps    *pairStream
	)
	err := b.repeatSetup("inputs", func() error {
		var err error
		if net, err = underlay.NewLite(scaleN, b.seed+1); err != nil {
			return err
		}
		sched, err = churn.GenerateSynthetic(churn.SyntheticConfig{
			N: scaleN, Horizon: churnEpochs,
			On:   churn.Exponential{Mean: 60},
			Off:  churn.Exponential{Mean: 12},
			Seed: b.seed + 101, StartOn: 0.9,
		})
		ps = newPairStream(scaleN, streamBatches, batchPairs, b.seed+7, nil)
		return err
	})
	if err != nil {
		return err
	}
	var run *churnRun
	engine, err := b.timeEngine(func(tr *tracer) (time.Duration, string, error) {
		r, err := b.churnEngine(tr, net, sched, ps)
		if err != nil {
			return 0, "", err
		}
		run = r
		return r.engine, wiringDigest(r.res.Wiring), nil
	})
	if err != nil {
		return err
	}
	b.set("engine_s", engine.Seconds(), 0)
	run.phases.report(b, run.res)
	if err := run.report(b); err != nil {
		return err
	}
	// The fixed-snapshot phases serve a fresh compile of the final
	// wiring, queried from the nodes still up; the reader's batches under
	// writes are this workload's bin_batch metrics.
	final := run.res.Wiring
	live := newPairStream(scaleN, streamBatches, batchPairs, b.seed+7, func(u int) bool { return final[u] != nil })
	return b.serveFinal(final, net, live, serveOpts{overlayCost: true})
}

// churnRun is one engine run with its publication stream and reader.
type churnRun struct {
	engine time.Duration
	res    *sim.ScaleResult
	phases *phaseTimes
	pub    *publisher
	rd     *reader
}

func (b *bench) churnEngine(tr *tracer, net *underlay.Lite, sched *churn.Schedule, ps *pairStream) (*churnRun, error) {
	srv := plane.NewServer()
	ep, err := listen(srv, false)
	if err != nil {
		return nil, err
	}
	defer ep.close()
	engineID := tr.id()
	run := &churnRun{phases: newPhaseTimes(tr, engineID)}
	run.pub = newPublisher(srv, net, tr, engineID)
	rd, err := startReader(b, ep.binAddr, ps, run.pub)
	if err != nil {
		return nil, err
	}
	run.rd = rd
	cfg := sim.ScaleConfig{
		N: scaleN, K: scaleK, Seed: b.seed,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: scaleM},
		MaxEpochs: churnEpochs, ConvergedFrac: -1, Churn: sched,
		Workers: 1, Net: net, OnPublish: run.pub.onPublish,
	}
	if tr != nil {
		cfg.OnPhase = run.phases.onPhase
	}
	t := time.Now()
	res, err := sim.RunScale(cfg)
	run.engine = time.Since(t)
	tr.add(engineID, 0, "sim.RunScale", t, t.Add(run.engine))
	last := run.pub.seq.Load() - 1
	if rerr := rd.finish(last); err == nil {
		err = rerr
	}
	if err != nil {
		rd.bc.close()
		return nil, err
	}
	run.res = res
	// Final pass: the reader's connection, now idle, must answer from
	// the last publication exactly as a fresh compile of the engine's
	// final wiring does.
	ref := newReference(res.Wiring, nil, net, ps)
	defer rd.bc.close()
	for i := 0; i < finalPassBatches; i++ {
		pairs, first := ps.batchAt(i)
		epoch, rs, err := rd.bc.do(pairs)
		if err == nil && epoch != last {
			err = fmt.Errorf("final pass answered from epoch %d, last publication is %d", epoch, last)
		}
		if err == nil {
			err = checkBin(ref, first, rs)
		}
		if err := b.op(err); err != nil {
			return nil, fmt.Errorf("final pass: %w", err)
		}
	}
	return run, nil
}

// report stores the reader's and the publisher's measurements.
func (r *churnRun) report(b *bench) error {
	lags := r.rd.lags(r.pub.enterTimes())
	if len(lags) != int(r.pub.seq.Load()) {
		return fmt.Errorf("answer lag: %d of %d publications answered", len(lags), r.pub.seq.Load())
	}
	p := r.pub
	for _, m := range []struct {
		name string
		xs   []float64
		pct  int
	}{
		{"answer_lag_p50_ms", lags, 50},
		{"answer_lag_p90_ms", lags, 90},
		{"bin_batch_p50_us", r.rd.rtt, 50},
		{"bin_batch_p90_us", r.rd.rtt, 90},
		{"plane.patch_us_p50", p.patchUS, 50},
		{"plane.patch_us_p90", p.patchUS, 90},
		{"plane.publish_us_p50", p.publishUS, 50},
		{"plane.publish_us_p90", p.publishUS, 90},
		{"plane.changed_rows_p50", p.changed, 50},
	} {
		if err := b.setPct(m.name, append([]float64(nil), m.xs...), m.pct); err != nil {
			return err
		}
	}
	if r.rd.unverified > 0 {
		b.notes = append(b.notes, fmt.Sprintf("%d reader batches answered from a snapshot already out of the check window: hops unchecked, costs and endpoints checked", r.rd.unverified))
	}
	return nil
}

// publisher is the OnPublish subscriber: it patches the previous
// snapshot with each publication's changed rows and publishes the
// result, timing both calls. The snapshot epoch is the publication's
// sequence number.
type publisher struct {
	srv    *plane.Server
	net    plane.DelayNet
	tr     *tracer
	parent int64

	prev      *plane.Snapshot
	seq       atomic.Int64
	first     chan struct{} // closed after the bootstrap publication
	enter     []time.Time   // per sequence number: when OnPublish was entered
	patchUS   []float64
	publishUS []float64
	changed   []float64

	mu     sync.Mutex
	recent map[int64]*plane.Snapshot // the last snapWindow publications
}

// snapWindow is how many recent snapshots the reader can check hops
// against. The reader is rarely more than one publication behind; a
// wider window would keep more row caches alive and inflate peak RSS.
const snapWindow = 2

func newPublisher(srv *plane.Server, net plane.DelayNet, tr *tracer, parent int64) *publisher {
	return &publisher{srv: srv, net: net, tr: tr, parent: parent,
		first: make(chan struct{}), recent: map[int64]*plane.Snapshot{}}
}

func (p *publisher) onPublish(pub sim.Publication) {
	t0 := time.Now()
	seq := p.seq.Load()
	id := p.tr.id()
	if pub.Full {
		p.prev = plane.Compile(seq, pub.Wiring, pub.Active, p.net, plane.Options{})
	} else {
		p.prev = p.prev.Patch(seq, pub.Changed, pub.Wiring, pub.Active)
		p.patchUS = append(p.patchUS, sinceUS(t0))
		p.changed = append(p.changed, float64(len(pub.Changed)))
		p.tr.add(p.tr.id(), id, "plane.Patch", t0, time.Now())
	}
	p.mu.Lock()
	p.recent[seq] = p.prev
	delete(p.recent, seq-snapWindow)
	p.enter = append(p.enter, t0)
	p.mu.Unlock()
	t1 := time.Now()
	p.srv.Publish(p.prev)
	p.publishUS = append(p.publishUS, sinceUS(t1))
	p.tr.add(p.tr.id(), id, "plane.Publish", t1, time.Now())
	p.tr.add(id, p.parent, "publication", t0, time.Now())
	p.seq.Store(seq + 1)
	if pub.Full {
		close(p.first)
	}
}

// snapshot returns publication seq's snapshot if still in the window.
func (p *publisher) snapshot(seq int64) *plane.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recent[seq]
}

func (p *publisher) enterTimes() []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Time(nil), p.enter...)
}

// reader is the closed-loop client that reads route batches while the
// engine publishes. It checks that answer epochs never decrease and
// that every path is a walk over the answering snapshot's arcs whose
// delays sum to the answered cost.
type reader struct {
	b   *bench
	bc  *binConn
	ps  *pairStream
	pub *publisher

	stopAt atomic.Int64  // last epoch to wait for; -1 while the engine runs
	abort  chan struct{} // closed when the engine published nothing
	done   chan struct{}
	err    error

	epochs     []int64
	recv       []time.Time
	rtt        []float64
	unverified int
}

// startReader dials the server, then starts reading once the bootstrap
// publication is in.
func startReader(b *bench, addr string, ps *pairStream, pub *publisher) (*reader, error) {
	bc, err := dialBin(addr)
	if err != nil {
		return nil, b.op(err)
	}
	rd := &reader{b: b, bc: bc, ps: ps, pub: pub, abort: make(chan struct{}), done: make(chan struct{})}
	rd.stopAt.Store(-1)
	go rd.loop()
	return rd, nil
}

func (rd *reader) loop() {
	defer close(rd.done)
	select {
	case <-rd.pub.first:
	case <-rd.abort:
		return
	}
	last := int64(-1)
	var snapEpoch int64 = -1
	var adj map[uint32][]uint32
	for i := 0; ; i++ {
		pairs, _ := rd.ps.batchAt(i)
		id := rd.pub.tr.id()
		t := time.Now()
		epoch, rs, err := rd.bc.do(pairs)
		now := time.Now()
		rd.pub.tr.add(id, 0, "reader.batch", t, now)
		if err == nil && epoch < last {
			err = fmt.Errorf("answer epoch went back from %d to %d", last, epoch)
		}
		if err == nil {
			if epoch != snapEpoch {
				snapEpoch, adj = epoch, map[uint32][]uint32{}
			}
			err = rd.checkLive(pairs, rs, rd.pub.snapshot(epoch), adj)
		}
		if rd.b.op(err) != nil {
			rd.err = err
			return
		}
		last = epoch
		rd.epochs = append(rd.epochs, epoch)
		rd.recv = append(rd.recv, now)
		rd.rtt = append(rd.rtt, float64(now.Sub(t).Nanoseconds())/1e3)
		if stop := rd.stopAt.Load(); stop >= 0 && epoch >= stop {
			return
		}
	}
}

// checkLive checks one batch answered while the engine runs. Costs are
// not compared with a reference (none exists per publication); each
// path must instead be a walk over snap's live arcs summing to its cost.
func (rd *reader) checkLive(pairs []uint32, rs []plane.BinResult, snap *plane.Snapshot, adj map[uint32][]uint32) error {
	if snap == nil {
		rd.unverified++
	}
	arc := func(u, v uint32) bool {
		if snap == nil {
			return true
		}
		out, ok := adj[u]
		if !ok {
			if snap.Live(int(u)) {
				for _, w := range snap.Neighbors(int(u)) {
					out = append(out, uint32(w))
				}
			}
			adj[u] = out
		}
		return snap.Live(int(v)) && hasArc(out, v)
	}
	for k := range rs {
		a := binAnswer(rs[k])
		src, dst := pairs[2*k], pairs[2*k+1]
		switch a.status {
		case plane.BinOK:
			if err := validWalk(src, dst, a, rd.pub.net, arc); err != nil {
				return err
			}
		case plane.BinUnreachable, plane.BinInvalidPair:
			if !isSentinel(a) {
				return fmt.Errorf("pair (%d,%d): status %d with cost %v and a %d-hop path", src, dst, a.status, a.cost, len(a.path))
			}
		default:
			return fmt.Errorf("pair (%d,%d): unknown status %d", src, dst, a.status)
		}
	}
	return nil
}

// finish tells the reader the engine is done and waits until it has
// seen publication last (none when last < 0), or failed.
func (rd *reader) finish(last int64) error {
	if last < 0 {
		close(rd.abort)
	}
	rd.stopAt.Store(last)
	<-rd.done
	return rd.err
}

// lags returns, for each publication, the time from OnPublish entry to
// the first answer from a snapshot at or past it, in ms.
func (rd *reader) lags(enter []time.Time) []float64 {
	var out []float64
	j := 0
	for s, t := range enter {
		for j < len(rd.epochs) && rd.epochs[j] < int64(s) {
			j++
		}
		if j == len(rd.epochs) {
			break
		}
		out = append(out, float64(rd.recv[j].Sub(t).Nanoseconds())/1e6)
	}
	return out
}
