package main

import (
	"fmt"
	"math"
	"sort"

	"egoist/internal/plane"
)

// reference holds the expected answer to every pair of a stream,
// computed on a fresh Compile of the wiring under test. A served answer
// is correct when its status matches, its cost is bit-equal to the
// reference cost, and its path is a walk over live overlay arcs from
// src to dst whose delays, summed in path order, give that cost bit for
// bit. The arc sequence itself is not pinned: equal-cost paths may
// differ.
type reference struct {
	stream *pairStream
	net    plane.DelayNet
	snap   *plane.Snapshot
	cost   []float64 // per stream pair; +Inf when unreachable
	adj    [][]uint32
}

func newReference(wiring [][]int, active []bool, net plane.DelayNet, ps *pairStream) *reference {
	snap := plane.Compile(0, wiring, active, net, plane.Options{})
	n := snap.N()
	r := &reference{stream: ps, net: net, snap: snap, cost: make([]float64, len(ps.pairs)/2), adj: make([][]uint32, n)}
	for u := 0; u < n; u++ {
		if snap.Live(u) {
			for _, v := range snap.Neighbors(u) {
				r.adj[u] = append(r.adj[u], uint32(v))
			}
		}
	}
	// Group the stream by source so each Dijkstra row is computed once.
	order := make([]int, len(r.cost))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ps.pairs[2*order[a]] < ps.pairs[2*order[b]] })
	for _, i := range order {
		r.cost[i] = snap.RouteCost(int(ps.pairs[2*i]), int(ps.pairs[2*i+1]))
	}
	return r
}

// answer is one served route answer in transport-neutral form.
type answer struct {
	status byte
	cost   float64
	path   []uint32
}

// check verifies the answer to stream pair idx.
func (r *reference) check(idx int, a answer) error {
	src, dst := r.stream.pairs[2*idx], r.stream.pairs[2*idx+1]
	want := r.cost[idx]
	live := r.snap.Live(int(src)) && r.snap.Live(int(dst))
	switch {
	case a.status == plane.BinInvalidPair && !live:
		// A departed endpoint may be answered in-band as invalid.
		if !isSentinel(a) {
			return fmt.Errorf("pair (%d,%d): invalid-pair answer carries cost %v and a %d-hop path", src, dst, a.cost, len(a.path))
		}
		return nil
	case math.IsInf(want, 1):
		if a.status != plane.BinUnreachable || !isSentinel(a) {
			return fmt.Errorf("pair (%d,%d): want unreachable, got status %d cost %v", src, dst, a.status, a.cost)
		}
		return nil
	}
	if a.status != plane.BinOK {
		return fmt.Errorf("pair (%d,%d): want ok with cost %v, got status %d", src, dst, want, a.status)
	}
	if math.Float64bits(a.cost) != math.Float64bits(want) {
		return fmt.Errorf("pair (%d,%d): cost %v, reference %v", src, dst, a.cost, want)
	}
	return validWalk(src, dst, a, r.net, func(u, v uint32) bool { return hasArc(r.adj[u], v) })
}

// isSentinel reports the encoding of a pair with no route: cost -1 and
// an empty path.
func isSentinel(a answer) bool {
	return math.Float64bits(a.cost) == math.Float64bits(-1) && len(a.path) == 0
}

// validWalk checks that a.path runs src..dst over arcs arc accepts and
// that its delays, summed in path order from zero, equal a.cost exactly
// — the order the serving Dijkstra accumulates them in.
func validWalk(src, dst uint32, a answer, net plane.DelayNet, arc func(u, v uint32) bool) error {
	p := a.path
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("pair (%d,%d): path %v does not run from src to dst", src, dst, p)
	}
	sum := 0.0
	for h := 1; h < len(p); h++ {
		if !arc(p[h-1], p[h]) {
			return fmt.Errorf("pair (%d,%d): hop %d->%d is not a live overlay arc", src, dst, p[h-1], p[h])
		}
		sum += net.Delay(int(p[h-1]), int(p[h]))
	}
	if math.Float64bits(sum) != math.Float64bits(a.cost) {
		return fmt.Errorf("pair (%d,%d): path delays sum to %v, answer says %v", src, dst, sum, a.cost)
	}
	return nil
}

func hasArc(out []uint32, v uint32) bool {
	for _, w := range out {
		if w == v {
			return true
		}
	}
	return false
}

// sameAnswer reports whether two transports answered a pair bit for
// bit alike: status, cost bits and the full path.
func sameAnswer(a, b answer) bool {
	if a.status != b.status || math.Float64bits(a.cost) != math.Float64bits(b.cost) || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return true
}

// binAnswer converts a decoded binary result.
func binAnswer(res plane.BinResult) answer {
	return answer{status: res.Status, cost: res.Cost, path: res.Path}
}

// jsonResult is one result of the POST /routes JSON reply, decoded the
// way an external client would.
type jsonResult struct {
	Path  []int   `json:"path"`
	Cost  float64 `json:"cost"`
	Ok    bool    `json:"ok"`
	Error string  `json:"error"`
}

// jsonAnswer converts a JSON result, reusing buf for the path.
func jsonAnswer(res *jsonResult, buf []uint32) answer {
	a := answer{status: plane.BinOK, cost: res.Cost, path: buf[:0]}
	switch {
	case res.Error != "":
		a.status = plane.BinInvalidPair
	case !res.Ok:
		a.status = plane.BinUnreachable
	default:
		for _, v := range res.Path {
			a.path = append(a.path, uint32(v))
		}
	}
	return a
}
