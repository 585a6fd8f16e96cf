package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"egoist/internal/plane"
)

// endpoint is a plane.Server behind loopback listeners: raw-TCP binary
// batches and, optionally, the HTTP handler.
type endpoint struct {
	srv      *plane.Server
	binLn    net.Listener
	hs       *http.Server
	wg       sync.WaitGroup
	binAddr  string
	httpBase string
}

func listen(srv *plane.Server, withHTTP bool) (*endpoint, error) {
	ep := &endpoint{srv: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding binary listener: %w", err)
	}
	ep.binLn, ep.binAddr = ln, ln.Addr().String()
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		_ = srv.ServeBinary(ln) // returns once the listener closes
	}()
	if withHTTP {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ep.close()
			return nil, fmt.Errorf("binding HTTP listener: %w", err)
		}
		ep.httpBase = "http://" + hln.Addr().String()
		ep.hs = &http.Server{Handler: srv.Handler()}
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			_ = ep.hs.Serve(hln) // returns http.ErrServerClosed on close
		}()
	}
	return ep, nil
}

// close stops both listeners and waits for their accept loops. Binary
// connection handlers end when their clients hang up.
func (ep *endpoint) close() {
	_ = ep.binLn.Close()
	if ep.hs != nil {
		_ = ep.hs.Close()
	}
	ep.wg.Wait()
}

// binConn is one closed-loop binary client connection.
type binConn struct {
	c   *plane.BinClient
	res []plane.BinResult
}

func dialBin(addr string) (*binConn, error) {
	c, err := plane.DialBinary(addr)
	if err != nil {
		return nil, fmt.Errorf("dialing binary listener: %w", err)
	}
	return &binConn{c: c}, nil
}

func (bc *binConn) close() { _ = bc.c.Close() }

// do sends one route batch and decodes the reply; the results are valid
// until the next call.
func (bc *binConn) do(pairs []uint32) (int64, []plane.BinResult, error) {
	payload, err := bc.c.Do(plane.BinModeRoute, pairs)
	if err != nil {
		return 0, nil, fmt.Errorf("binary batch: %w", err)
	}
	epoch, rs, err := plane.DecodeBatchResponse(payload, plane.BinModeRoute, bc.res)
	if err != nil {
		return 0, nil, fmt.Errorf("binary batch: %w", err)
	}
	bc.res = rs
	if len(rs) != len(pairs)/2 {
		return 0, nil, fmt.Errorf("binary batch answered %d of %d pairs", len(rs), len(pairs)/2)
	}
	return epoch, rs, nil
}

// jsonConn is one closed-loop HTTP client on a single keep-alive
// connection.
type jsonConn struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	path []uint32
}

func newJSONConn(base string) *jsonConn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &jsonConn{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (jc *jsonConn) close() { jc.tr.CloseIdleConnections() }

type jsonBatch struct {
	Mode  string      `json:"mode"`
	Pairs [][2]uint32 `json:"pairs"`
}

type jsonReply struct {
	Epoch   int64        `json:"epoch"`
	Results []jsonResult `json:"results"`
}

// do sends one route batch to POST /routes, the way an external client
// would: marshal, post, decode.
func (jc *jsonConn) do(pairs []uint32, req *jsonBatch, reply *jsonReply) error {
	req.Mode = "route"
	req.Pairs = req.Pairs[:0]
	for i := 0; i < len(pairs); i += 2 {
		req.Pairs = append(req.Pairs, [2]uint32{pairs[i], pairs[i+1]})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := jc.hc.Post(jc.base+"/routes", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("JSON batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: only decorates the error
		return fmt.Errorf("JSON batch: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	reply.Results = reply.Results[:0]
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		return fmt.Errorf("JSON batch: %w", err)
	}
	if len(reply.Results) != len(pairs)/2 {
		return fmt.Errorf("JSON batch answered %d of %d pairs", len(reply.Results), len(pairs)/2)
	}
	return nil
}

// errBinHTTPMissing reports that POST /routes.bin is not served.
var errBinHTTPMissing = errors.New("POST /routes.bin answered 404")

// doBinHTTP sends one binary route batch over POST /routes.bin.
func (jc *jsonConn) doBinHTTP(pairs []uint32, reqBuf []byte) ([]byte, error) {
	reqBuf = plane.AppendBatchRequest(reqBuf[:0], plane.BinModeRoute, pairs)
	resp, err := jc.hc.Post(jc.base+"/routes.bin", "application/octet-stream", bytes.NewReader(reqBuf))
	if err != nil {
		return nil, fmt.Errorf("HTTP binary batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errBinHTTPMissing
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP binary batch: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("HTTP binary batch: %w", err)
	}
	return body, nil
}

// checkBin checks a binary batch's results against the reference.
func checkBin(ref *reference, first int, rs []plane.BinResult) error {
	for i := range rs {
		if err := ref.check(first+i, binAnswer(rs[i])); err != nil {
			return err
		}
	}
	return nil
}

// loopUntil runs step in a closed loop until the phase has lasted dur
// and produced at least minN samples; it fails if reaching minN takes
// longer than four times dur. step returns one latency sample in
// microseconds.
func loopUntil(dur time.Duration, minN int, step func(i int) (float64, error)) ([]float64, error) {
	var xs []float64
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= dur && len(xs) >= minN {
			return xs, nil
		}
		if el >= 4*dur {
			return nil, fmt.Errorf("only %d of the %d samples needed in %v", len(xs), minN, el.Round(time.Millisecond))
		}
		us, err := step(i)
		if err != nil {
			return nil, err
		}
		xs = append(xs, us)
	}
}

func sinceUS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// serveOpts selects the serving phases a workload measures over a
// fixed snapshot.
type serveOpts struct {
	// binBatch times one connection's batches over the fixed snapshot;
	// churn-serve times its batches under writes instead.
	binBatch bool
	// overlayCost reports overlay_cost from the reference compile.
	overlayCost bool
}

// fixedServe is a served snapshot that no longer changes, with the
// reference its answers are checked against.
type fixedServe struct {
	ep     *endpoint
	ref    *reference
	wiring [][]int
	net    plane.DelayNet
}

// setupFixed compiles wiring into a snapshot behind a NewServerShards
// server on loopback and runs the untimed warm-up pass over the pair
// stream (binary and JSON, compared answer by answer), which also feeds
// the server's hot-source counters. It returns the served endpoint and
// the compile time in ms.
func (b *bench) setupFixed(wiring [][]int, net plane.DelayNet, ref *reference) (*fixedServe, float64, error) {
	srv := plane.NewServerShards(b.procs)
	fs := &fixedServe{ref: ref, wiring: wiring, net: net}
	ms := fs.publish(srv)
	ep, err := listen(srv, true)
	if err != nil {
		return nil, 0, err
	}
	fs.ep = ep
	if err := b.warmUp(fs); err != nil {
		ep.close()
		return nil, 0, err
	}
	return fs, ms, nil
}

// publish installs a fresh compile of the wiring on srv and returns the
// compile time in ms. Publishing warms the rows of the sources the
// server has counted most, so every timed phase starts from the same
// cache state: hot rows computed, the rest cold. A forced collection
// afterwards keeps the previous phase's garbage out of the next one.
func (fs *fixedServe) publish(srv *plane.Server) float64 {
	t := time.Now()
	snap := plane.Compile(1, fs.wiring, nil, fs.net, plane.Options{})
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	srv.Publish(snap)
	runtime.GC()
	return ms
}

// warmUpBatches is the length of the untimed warm-up pass; its first
// compareBatches batches also go through JSON and must match the binary
// answers bit for bit.
const (
	warmUpBatches  = 64
	compareBatches = 8
)

func (b *bench) warmUp(fs *fixedServe) error {
	bc, err := dialBin(fs.ep.binAddr)
	if err != nil {
		return b.op(err)
	}
	defer bc.close()
	jc := newJSONConn(fs.ep.httpBase)
	defer jc.close()
	var req jsonBatch
	var reply jsonReply
	for i := 0; i < warmUpBatches; i++ {
		pairs, first := fs.ref.stream.batchAt(i)
		_, rs, err := bc.do(pairs)
		if err == nil {
			err = checkBin(fs.ref, first, rs)
		}
		if err == nil && i < compareBatches {
			if err = jc.do(pairs, &req, &reply); err == nil {
				for k := range rs {
					ja := jsonAnswer(&reply.Results[k], jc.path)
					if !sameAnswer(binAnswer(rs[k]), ja) {
						err = fmt.Errorf("pair %d: binary and JSON answers differ", first+k)
						break
					}
				}
			}
		}
		if err := b.op(err); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// measureFixed runs the timed serving phases against a fixed snapshot,
// re-publishing a fresh compile (untimed) before each. Shares of
// --seconds: single-pair requests 0.05, binary batches 0.25, JSON
// batches 0.35, nproc connections 0.35. A JSON batch's latency spreads
// widest, so its phase is the longest.
func (b *bench) measureFixed(fs *fixedServe, opts serveOpts) error {
	ref := fs.ref
	fs.publish(fs.ep.srv)
	xs, err := b.binPhase(fs, "bin_1", b.phaseDur(0.05), minSamples(50), func(i int) ([]uint32, int) { return ref.stream.pairAt(i) })
	if err != nil {
		return err
	}
	if err := b.setPct("bin_1_p50_us", xs, 50); err != nil {
		return err
	}
	if opts.binBatch {
		fs.publish(fs.ep.srv)
		xs, err := b.binPhase(fs, "bin_batch", b.phaseDur(0.25), minSamples(90), ref.stream.batchAt)
		if err != nil {
			return err
		}
		if err := b.setPct("bin_batch_p50_us", append([]float64(nil), xs...), 50); err != nil {
			return err
		}
		if err := b.setPct("bin_batch_p90_us", xs, 90); err != nil {
			return err
		}
	}
	fs.publish(fs.ep.srv)
	if err := b.jsonPhase(fs); err != nil {
		return err
	}
	fs.publish(fs.ep.srv)
	return b.multiPhase(fs)
}

// binPhase times closed-loop binary requests over one fresh
// connection; batchAt picks each request's pairs.
func (b *bench) binPhase(fs *fixedServe, name string, dur time.Duration, minN int, batchAt func(int) ([]uint32, int)) ([]float64, error) {
	bc, err := dialBin(fs.ep.binAddr)
	if err != nil {
		return nil, b.op(err)
	}
	defer bc.close()
	phaseID := b.tr.id()
	start := time.Now()
	xs, err := loopUntil(dur, minN, func(i int) (float64, error) {
		pairs, first := batchAt(i)
		id := b.tr.id()
		t := time.Now()
		_, rs, err := bc.do(pairs)
		us := sinceUS(t)
		b.tr.add(id, phaseID, name+".batch", t, time.Now())
		if err == nil {
			err = checkBin(fs.ref, first, rs)
		}
		return us, b.op(err)
	})
	b.tr.add(phaseID, 0, "phase."+name, start, time.Now())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return xs, nil
}

// jsonPhase times the stream's batches through POST /routes on one
// keep-alive connection.
func (b *bench) jsonPhase(fs *fixedServe) error {
	jc := newJSONConn(fs.ep.httpBase)
	defer jc.close()
	var req jsonBatch
	var reply jsonReply
	phaseID := b.tr.id()
	start := time.Now()
	xs, err := loopUntil(b.phaseDur(0.35), minSamples(50), func(i int) (float64, error) {
		pairs, first := fs.ref.stream.batchAt(i)
		id := b.tr.id()
		t := time.Now()
		err := jc.do(pairs, &req, &reply)
		us := sinceUS(t)
		b.tr.add(id, phaseID, "json_batch.batch", t, time.Now())
		if err == nil {
			for k := range reply.Results {
				a := jsonAnswer(&reply.Results[k], jc.path)
				jc.path = a.path
				if err = fs.ref.check(first+k, a); err != nil {
					break
				}
			}
		}
		return us, b.op(err)
	})
	b.tr.add(phaseID, 0, "phase.json_batch", start, time.Now())
	if err != nil {
		return fmt.Errorf("json_batch: %w", err)
	}
	return b.setPct("json_batch_p50_us", xs, 50)
}

// multiPhase runs one closed-loop binary connection per core for its
// share of the measuring time and reports answered pairs per second.
func (b *bench) multiPhase(fs *fixedServe) error {
	dur := b.phaseDur(0.35)
	conns := make([]*binConn, b.procs)
	for c := range conns {
		bc, err := dialBin(fs.ep.binAddr)
		if err != nil {
			for _, open := range conns[:c] {
				open.close()
			}
			return b.op(err)
		}
		conns[c] = bc
	}
	pairs := make([]int64, b.procs)
	errs := make([]error, b.procs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer conns[c].close()
			offset := c * fs.ref.stream.numBatches() / b.procs
			for i := offset; time.Now().Before(deadline); i++ {
				ps, first := fs.ref.stream.batchAt(i)
				_, rs, err := conns[c].do(ps)
				if err == nil {
					err = checkBin(fs.ref, first, rs)
				}
				if b.op(err) != nil {
					errs[c] = err
					return
				}
				pairs[c] += int64(len(rs))
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	b.tr.add(b.tr.id(), 0, "phase.bin_multi", start, start.Add(el))
	var total int64
	for c := range conns {
		if errs[c] != nil {
			return fmt.Errorf("bin_multi connection %d: %w", c, errs[c])
		}
		total += pairs[c]
	}
	b.set("bin_pairs_per_s", float64(total)/el.Seconds(), 0)
	return nil
}
