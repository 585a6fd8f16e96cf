package main

import (
	"math/rand"
	"sort"
)

// batchPairs is the pair count of one route batch.
const batchPairs = 256

// streamBatches is the number of distinct batches in a pair stream; the
// timed loops cycle through them.
const streamBatches = 512

// querySources is the number of nodes that originate queries: 1.5 times
// the serving row cache (plane.Options.RouteCacheRows, 256 rows by
// default), so the hottest sources stay cached while the tail keeps
// missing. At n=3000 a row miss costs a Dijkstra of about 0.7 ms on the
// reference box, about 10% of route queries miss, and a 256-pair batch
// takes about 15 ms; a source population of all n nodes would miss 40%
// and turn every serving metric into a Dijkstra benchmark.
const querySources = 384

// pairStream is the benchmark's query stream: route pairs in fixed-size
// batches, src,dst alternating. Sources are Zipf-distributed with
// exponent 1 over a seeded ranking of min(n, querySources) nodes, so a
// few sources are hot while the tail spans more sources than the serving
// row cache holds; destinations are uniform over all n nodes. When live
// is non-nil only nodes it accepts are ranked as sources.
type pairStream struct {
	batch int
	pairs []uint32
}

func newPairStream(n, batches, batch int, seed int64, live func(int) bool) *pairStream {
	rng := rand.New(rand.NewSource(seed))
	var byRank []int
	for _, u := range rng.Perm(n) {
		if live == nil || live(u) {
			byRank = append(byRank, u)
		}
	}
	cdf := make([]float64, min(len(byRank), querySources))
	acc := 0.0
	for r := range cdf {
		acc += 1 / float64(r+1)
		cdf[r] = acc
	}
	ps := &pairStream{batch: batch, pairs: make([]uint32, 2*batches*batch)}
	for i := 0; i < len(ps.pairs); i += 2 {
		r := sort.SearchFloat64s(cdf, rng.Float64()*acc)
		if r >= len(cdf) {
			r = len(cdf) - 1
		}
		ps.pairs[i] = uint32(byRank[r])
		ps.pairs[i+1] = uint32(rng.Intn(n))
	}
	return ps
}

func (ps *pairStream) numBatches() int { return len(ps.pairs) / (2 * ps.batch) }

// batchAt returns batch i (mod the stream length) and the stream index
// of its first pair.
func (ps *pairStream) batchAt(i int) ([]uint32, int) {
	i %= ps.numBatches()
	return ps.pairs[2*ps.batch*i : 2*ps.batch*(i+1)], ps.batch * i
}

// pairAt returns the stream's k-th pair (mod the stream length) as a
// one-pair batch, and its stream index.
func (ps *pairStream) pairAt(k int) ([]uint32, int) {
	k %= len(ps.pairs) / 2
	return ps.pairs[2*k : 2*k+2], k
}

// tableBatches is the number of distinct batches in a route-table
// stream.
const tableBatches = 64

// newTableStream is the query stream of a small overlay: every batch is
// the full route table, all n(n-1) ordered pairs of distinct nodes, in
// a seeded order — the refresh a node or monitor of the paper's
// 50-node deployment makes. A batch this large keeps the round trip in
// milliseconds, where loopback scheduling jitter no longer dominates.
func newTableStream(n, batches int, seed int64) *pairStream {
	rng := rand.New(rand.NewSource(seed))
	table := make([]uint32, 0, 2*n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				table = append(table, uint32(u), uint32(v))
			}
		}
	}
	ps := &pairStream{batch: n * (n - 1)}
	for b := 0; b < batches; b++ {
		rng.Shuffle(len(table)/2, func(i, j int) {
			table[2*i], table[2*j] = table[2*j], table[2*i]
			table[2*i+1], table[2*j+1] = table[2*j+1], table[2*i+1]
		})
		ps.pairs = append(ps.pairs, table...)
	}
	return ps
}
