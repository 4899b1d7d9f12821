package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

// Request classes of the serving mix.
const (
	classHit    = "hit"    // cache hit through the coordinator
	classDirect = "direct" // cache hit sent straight to the owning worker
	classFresh  = "fresh"  // cache miss of one of the five kinds
	classDup    = "dup"    // same spec as a fresh job, 2 ms behind it
	classShard  = "shard"  // 18-unit passive job the coordinator shards
	classCancel = "cancel" // fresh job cancelled right after admission
)

// classOrder fixes the iteration order of class tables.
var classOrder = []string{classHit, classDirect, classFresh, classDup, classShard, classCancel}

// serveBlock is the serving mix: the requests of each block of 100, in
// a seeded order. The shares are chosen, not measured: SINet has no
// request log. README.md gives the reason for each. Two of the fresh
// jobs of a block carry a dup, sent dupLag behind them.
var serveBlock = map[string]int{
	classHit:    79,
	classDirect: 6,
	classFresh:  8,
	classDup:    2,
	classCancel: 4,
	classShard:  1,
}

// latencyLimit is each class's limit for goodput: a request counts as
// good only when it is correct and finished within its limit from when
// it was sent. Cancels are timed to their terminal state. Each limit is
// twice the class's p90 measured once on a 2-core host (median over
// three 30 s serve-mixed runs; README.md has the values), rounded up, so
// that goodput falls when a tail doubles.
var latencyLimit = map[string]time.Duration{
	classHit:    1500 * time.Microsecond,
	classDirect: 1 * time.Millisecond,
	classFresh:  45 * time.Millisecond,
	classDup:    35 * time.Millisecond,
	classCancel: 15 * time.Millisecond,
	classShard:  260 * time.Millisecond,
}

const (
	hitPopulation = 32 // distinct specs primed into the caches
	dupLag        = 2 * time.Millisecond
	// blocksPerSecond sizes the serving session: a run sends
	// blocksPerSecond x --seconds blocks, a fixed amount of work per
	// seed. One client completed about 2.8 blocks/s on a 2-core host, so
	// the session takes about 90% of the window there. Fixed work, not a
	// fixed time, keeps the cached results, and with them the peak RSS,
	// from moving with the host's speed.
	blocksPerSecond = 2.5
)

// blockSize is the number of requests in a block of serveBlock.
var blockSize = func() int {
	n := 0
	for _, c := range serveBlock {
		n += c
	}
	return n
}()

// arrival is one request of the serving stream.
type arrival struct {
	Class string
	Spec  *service.JobSpec // normalized; shared by arrivals, never written
	Key   string           // Spec's ConfigKey
	// PollPhase delays the first status poll, in (0, pollInterval], so
	// that completion times are not read on a grid locked to the submit.
	PollPhase time.Duration
	// Dup, on a fresh arrival, is the duplicate sent dupLag after it,
	// while it is still in flight.
	Dup *arrival
}

// pollPhase draws a first-poll delay in (0, pollInterval].
func pollPhase(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63n(int64(pollInterval))) + 1
}

// specGen draws serving specs from one seeded stream.
type specGen struct {
	rng  *rand.Rand
	next int64 // campaign seed counter, unique per generator
}

func newSpecGen(seed int64, stream string) *specGen {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return &specGen{rng: rand.New(rand.NewSource(seed*1000003 + h)), next: 1}
}

func (g *specGen) seed() int64 {
	g.next++
	return g.rng.Int63n(1<<40) + g.next
}

var defaultSites = []string{"HK", "SYD", "LDN", "PGH"}

// Sharded jobs cover shardSites x shardFleets: 18 units, above the
// shard threshold of 16, so the coordinator splits each in two. The
// fleets are the three small ones, which keeps a job to about 30 ms of
// compute, so scatter, fold and merge are a visible share of its time.
// Sites and fleets are the same for every job; only the campaign seed
// varies, so a seed cannot make the shard class cheaper.
var (
	shardSites  = []string{"GZ", "HK", "LDN", "PGH", "SH", "SYD"}
	shardFleets = []string{"CSTP", "FOSSA", "PICO"}
)

// small returns a small, unique campaign of the given kind: every kind
// stays at or under the shard threshold (16 units) and costs a few to
// about fifteen milliseconds, so serving overheads are a visible share.
func (g *specGen) small(kind string) *service.JobSpec {
	s := &service.JobSpec{Kind: kind}
	switch kind {
	case "passive":
		s.Passive = &service.PassiveSpec{Seed: g.seed(),
			Sites: []string{defaultSites[g.rng.Intn(len(defaultSites))]}, Constellations: []string{"PICO"}}
	case "active":
		s.Active = &service.ActiveSpec{Seed: g.seed(), Constellation: "FOSSA"}
	case "coverage":
		a := math.Round(g.rng.Float64()*12000-6000) / 100
		b := math.Round(g.rng.Float64()*12000-6000) / 100
		s.Coverage = &service.CoverageSpec{LatitudesDeg: []float64{a, b}}
	case "backhaul":
		start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(g.rng.Intn(86400*28)) * time.Second)
		s.Backhaul = &service.BackhaulSpec{Constellation: "FOSSA", Start: start}
	case "routing":
		s.Routing = &service.RoutingSpec{Seed: g.seed(), Constellation: "FOSSA"}
	}
	return mustNormalize(s)
}

// sharded returns an 18-unit passive campaign that the coordinator
// shards.
func (g *specGen) sharded() *service.JobSpec {
	return mustNormalize(&service.JobSpec{Kind: "passive", Passive: &service.PassiveSpec{Seed: g.seed(),
		Sites: append([]string(nil), shardSites...), Constellations: append([]string(nil), shardFleets...)}})
}

func mustNormalize(s *service.JobSpec) *service.JobSpec {
	if err := s.Normalize(); err != nil {
		panic(fmt.Sprintf("perfbench: generated spec invalid: %v", err))
	}
	return s
}

// hitSpecs is the population primed into the caches during set-up,
// drawn from its own seeded stream.
func hitSpecs(seed int64) []*service.JobSpec {
	g := newSpecGen(seed, "hits")
	out := make([]*service.JobSpec, hitPopulation)
	for i := range out {
		out[i] = g.small(kinds[i%len(kinds)])
	}
	return out
}

// stream is the serving session's request sequence, drawn only from
// the workload seed. It deals serveBlock's requests block by block in a
// seeded order, so every block holds exactly the mix. Fresh and
// cancelled jobs deal the five kinds in turn (each run of five holds
// every kind once), and hits deal the primed population in turn, so a
// class's quantiles do not move with what a seed happened to draw.
type stream struct {
	rng     *rand.Rand
	gen     *specGen
	hits    []arrival // the keyed hit population
	pending []arrival // rest of the current block
	kindsOf map[string][]string
	hitDeck []int
}

func newStream(seed int64, hits []arrival) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), gen: newSpecGen(seed, "serve"),
		hits: hits, kindsOf: map[string][]string{}}
}

// next returns the stream's next request.
func (st *stream) next() arrival {
	if len(st.pending) == 0 {
		st.pending = st.block()
	}
	a := st.pending[0]
	st.pending = st.pending[1:]
	return a
}

func (st *stream) block() []arrival {
	var deck []string
	for _, c := range classOrder {
		if c == classDup {
			continue // dups ride on fresh arrivals
		}
		for i := 0; i < serveBlock[c]; i++ {
			deck = append(deck, c)
		}
	}
	st.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	dups := serveBlock[classDup]
	out := make([]arrival, 0, len(deck))
	for _, c := range deck {
		a := arrival{Class: c, PollPhase: pollPhase(st.rng)}
		switch c {
		case classHit, classDirect:
			if len(st.hitDeck) == 0 {
				st.hitDeck = st.rng.Perm(len(st.hits))
			}
			h := st.hits[st.hitDeck[0]]
			st.hitDeck = st.hitDeck[1:]
			a.Spec, a.Key = h.Spec, h.Key
		case classFresh, classCancel:
			a.Spec = st.gen.small(st.kind(c))
		case classShard:
			a.Spec = st.gen.sharded()
		}
		if a.Key == "" {
			a.Key = specKey(a.Spec)
		}
		if c == classFresh && dups > 0 {
			dups--
			a.Dup = &arrival{Class: classDup, Spec: a.Spec, Key: a.Key, PollPhase: pollPhase(st.rng)}
		}
		out = append(out, a)
	}
	return out
}

// kind deals the next kind for class c.
func (st *stream) kind(c string) string {
	if len(st.kindsOf[c]) == 0 {
		d := append([]string(nil), kinds...)
		st.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		st.kindsOf[c] = d
	}
	k := st.kindsOf[c][0]
	st.kindsOf[c] = st.kindsOf[c][1:]
	return k
}

// specKey is a generated spec's content key. ConfigKey normalizes its
// spec in place, so keys are computed once, when a spec is made, before
// any request shares it.
func specKey(s *service.JobSpec) string {
	k, err := service.ConfigKey(s)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated spec has no key: %v", err))
	}
	return string(k)
}
