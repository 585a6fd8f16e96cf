package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"egoist/internal/plane"
)

// Fixed sample counts of the traced run's in-process layer timings.
const (
	lookupSamples  = 20000
	answerBatches  = 256
	handlerBatches = 100
	httpBinBatches = 200
	allocBatches   = 200
)

// measureLayers times the serving layers in-process and per transport
// against the fixed snapshot, for the traced run. The transport share of
// an end-to-end batch is its round trip minus the in-process answer.
func (b *bench) measureLayers(fs *fixedServe) error {
	steps := []func(*fixedServe) error{b.layerLookups, b.layerAnswerBin, b.layerHandler, b.layerHTTPBin, b.layerAllocs}
	for _, step := range steps {
		if err := step(fs); err != nil {
			return err
		}
	}
	return nil
}

// layerLookups times single Shard.Route and Shard.OneHop calls.
func (b *bench) layerLookups(fs *fixedServe) error {
	sh := fs.ep.srv.Shard(0)
	for _, mode := range []string{"route", "onehop"} {
		xs := make([]float64, 0, lookupSamples)
		start := time.Now()
		for k := 0; k < lookupSamples; k++ {
			pair, _ := fs.ref.stream.pairAt(k)
			src, dst := int(pair[0]), int(pair[1])
			t := time.Now()
			var err error
			if mode == "route" {
				_, _, _, err = sh.Route(src, dst)
			} else {
				_, _, err = sh.OneHop(src, dst)
			}
			xs = append(xs, sinceUS(t))
			if err := b.op(err); err != nil {
				return fmt.Errorf("in-process %s: %w", mode, err)
			}
		}
		b.tr.add(b.tr.id(), 0, "layer.shard_"+mode, start, time.Now())
		if err := b.setPct("plane."+mode+"_us_p50", xs, 50); err != nil {
			return err
		}
	}
	return nil
}

// layerAnswerBin times Shard.AnswerBinary on the stream's batches over a
// fresh single-shard server that saw the same untimed warm-up traffic as
// the served one, and reads the row-cache miss ratio of exactly those
// batches: the query sequence is fixed, so the ratio is exact.
func (b *bench) layerAnswerBin(fs *fixedServe) error {
	srv := plane.NewServerShards(1)
	fs.publish(srv)
	sh := srv.Shard(0)
	var req, resp []byte
	answer := func(i int) (float64, error) {
		pairs, first := fs.ref.stream.batchAt(i)
		req = plane.AppendBatchRequest(req[:0], plane.BinModeRoute, pairs)
		t := time.Now()
		out, err := sh.AnswerBinary(req, resp[:0])
		us := sinceUS(t)
		if err != nil {
			return us, err
		}
		resp = out
		_, rs, err := plane.DecodeBatchResponse(out, plane.BinModeRoute, nil)
		if err != nil {
			return us, err
		}
		return us, checkBin(fs.ref, first, rs)
	}
	for i := 0; i < warmUpBatches; i++ {
		if _, err := answer(i); b.op(err) != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
	}
	fs.publish(srv)
	before := srv.CacheStats()
	xs := make([]float64, 0, answerBatches)
	start := time.Now()
	for i := 0; i < answerBatches; i++ {
		us, err := answer(warmUpBatches + i)
		if b.op(err) != nil {
			return fmt.Errorf("in-process AnswerBinary: %w", err)
		}
		xs = append(xs, us)
	}
	b.tr.add(b.tr.id(), 0, "layer.answer_binary", start, time.Now())
	after := srv.CacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		b.set("plane.cache_miss_ratio", float64(misses)/float64(hits+misses), int(hits+misses))
	}
	return b.setPct("plane.answer_bin_us_p50", xs, 50)
}

// layerHandler times the JSON batch handler into an in-memory recorder:
// decode, lookup and encode without a socket.
func (b *bench) layerHandler(fs *fixedServe) error {
	h := fs.ep.srv.Handler()
	var body []byte
	var req jsonBatch
	var reply jsonReply
	var path []uint32
	xs := make([]float64, 0, handlerBatches)
	start := time.Now()
	for i := 0; i < handlerBatches; i++ {
		pairs, first := fs.ref.stream.batchAt(i)
		req.Mode, req.Pairs = "route", req.Pairs[:0]
		for k := 0; k < len(pairs); k += 2 {
			req.Pairs = append(req.Pairs, [2]uint32{pairs[k], pairs[k+1]})
		}
		var err error
		if body, err = json.Marshal(&req); err != nil {
			return err
		}
		r := httptest.NewRequest(http.MethodPost, "/routes", bytes.NewReader(body))
		w := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(w, r)
		xs = append(xs, sinceUS(t))
		if w.Code != http.StatusOK {
			err = fmt.Errorf("handler answered HTTP %d", w.Code)
		}
		if err == nil {
			reply.Results = reply.Results[:0]
			err = json.Unmarshal(w.Body.Bytes(), &reply)
		}
		for k := 0; err == nil && k < len(reply.Results); k++ {
			a := jsonAnswer(&reply.Results[k], path)
			path = a.path
			err = fs.ref.check(first+k, a)
		}
		if b.op(err) != nil {
			return fmt.Errorf("in-process JSON handler: %w", err)
		}
	}
	b.tr.add(b.tr.id(), 0, "layer.json_handler", start, time.Now())
	return b.setPct("plane.answer_json_us_p50", xs, 50)
}

// layerHTTPBin times binary batches over POST /routes.bin. A server
// without that endpoint drops the metric instead of failing the run.
func (b *bench) layerHTTPBin(fs *fixedServe) error {
	jc := newJSONConn(fs.ep.httpBase)
	defer jc.close()
	var reqBuf []byte
	var rs []plane.BinResult
	xs := make([]float64, 0, httpBinBatches)
	start := time.Now()
	for i := 0; i < httpBinBatches; i++ {
		pairs, first := fs.ref.stream.batchAt(i)
		t := time.Now()
		body, err := jc.doBinHTTP(pairs, reqBuf)
		if err == nil {
			_, rs, err = plane.DecodeBatchResponse(body, plane.BinModeRoute, rs)
		}
		us := sinceUS(t)
		if errors.Is(err, errBinHTTPMissing) {
			b.notes = append(b.notes, "plane.http_bin_batch_p50_us dropped: the server has no POST /routes.bin")
			b.set("plane.http_bin_batch_p50_us", 0, 0)
			return nil
		}
		if err == nil {
			err = checkBin(fs.ref, first, rs)
		}
		if b.op(err) != nil {
			return fmt.Errorf("HTTP binary batch: %w", err)
		}
		xs = append(xs, us)
	}
	b.tr.add(b.tr.id(), 0, "layer.http_binary", start, time.Now())
	return b.setPct("plane.http_bin_batch_p50_us", xs, 50)
}

// layerAllocs counts heap allocations per raw-TCP binary batch, client
// and server together (they share the process).
func (b *bench) layerAllocs(fs *fixedServe) error {
	bc, err := dialBin(fs.ep.binAddr)
	if err != nil {
		return b.op(err)
	}
	defer bc.close()
	step := func(i int) error {
		pairs, first := fs.ref.stream.batchAt(i)
		_, rs, err := bc.do(pairs)
		if err == nil {
			err = checkBin(fs.ref, first, rs)
		}
		return b.op(err)
	}
	// One untimed batch grows the connection's buffers first.
	if err := step(0); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= allocBatches; i++ {
		if err := step(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	b.set("plane.bin_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/allocBatches, allocBatches)
	return nil
}
