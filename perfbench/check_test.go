package main

import (
	"math"
	"testing"

	"egoist/internal/plane"
	"egoist/internal/underlay"
)

// testServe answers a small stream in-process through the binary
// protocol and returns the reference with the decoded answers.
func testServe(t *testing.T) (*reference, []plane.BinResult) {
	t.Helper()
	const n = 40
	net, err := underlay.NewLite(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	wiring := make([][]int, n)
	for u := range wiring {
		if u == 7 {
			continue // a departed node
		}
		for d := 1; d <= 3; d++ {
			if v := (u + d*d) % n; v != 7 {
				wiring[u] = append(wiring[u], v)
			}
		}
	}
	ps := newPairStream(n, 4, 64, 11, nil)
	ref := newReference(wiring, nil, net, ps)
	srv := plane.NewServer()
	srv.Publish(plane.Compile(0, wiring, nil, net, plane.Options{}))
	var all []plane.BinResult
	for i := 0; i < ps.numBatches(); i++ {
		pairs, _ := ps.batchAt(i)
		resp, err := srv.Shard(0).AnswerBinary(plane.AppendBatchRequest(nil, plane.BinModeRoute, pairs), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, rs, err := plane.DecodeBatchResponse(resp, plane.BinModeRoute, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rs...)
	}
	return ref, all
}

func TestCheckAcceptsServedAnswers(t *testing.T) {
	ref, rs := testServe(t)
	if err := checkBin(ref, 0, rs); err != nil {
		t.Fatal(err)
	}
}

// firstRoute returns the index of the first answer with a multi-hop
// path.
func firstRoute(t *testing.T, rs []plane.BinResult) int {
	for i, r := range rs {
		if r.Status == plane.BinOK && len(r.Path) >= 3 {
			return i
		}
	}
	t.Fatal("stream has no multi-hop route")
	return -1
}

func TestCheckRejectsCorruptedAnswer(t *testing.T) {
	corruptions := map[string]func(r *plane.BinResult){
		"cost off by one ulp": func(r *plane.BinResult) { r.Cost = math.Nextafter(r.Cost, math.Inf(1)) },
		"hop replaced":        func(r *plane.BinResult) { r.Path[1] = (r.Path[1] + 1) % 40 },
		"path truncated":      func(r *plane.BinResult) { r.Path = r.Path[:len(r.Path)-1] },
		"reported unreachable": func(r *plane.BinResult) {
			r.Status, r.Cost, r.Path = plane.BinUnreachable, -1, nil
		},
		"reported invalid": func(r *plane.BinResult) {
			r.Status, r.Cost, r.Path = plane.BinInvalidPair, -1, nil
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			ref, rs := testServe(t)
			i := firstRoute(t, rs)
			r := rs[i]
			r.Path = append([]uint32(nil), r.Path...)
			corrupt(&r)
			rs[i] = r
			if err := checkBin(ref, 0, rs); err == nil {
				t.Fatalf("corrupted answer %d passed the check", i)
			}
		})
	}
}

func TestCheckAcceptsInvalidPairForDepartedNode(t *testing.T) {
	ref, rs := testServe(t)
	found := false
	for i := range rs {
		src, dst := ref.stream.pairs[2*i], ref.stream.pairs[2*i+1]
		if src == 7 || dst == 7 {
			rs[i] = plane.BinResult{Status: plane.BinInvalidPair, Cost: -1}
			found = true
		}
	}
	if !found {
		t.Fatal("stream never names the departed node")
	}
	if err := checkBin(ref, 0, rs); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must fail")
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 99)
	if err != nil || v != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989", v, err)
	}
	if got := minSamples(99); got != 1000 {
		t.Fatalf("minSamples(99) = %d, want 1000", got)
	}
}
