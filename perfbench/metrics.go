package main

import (
	"math"
	"sort"
	"time"
)

// kinds is the campaigns rotation order; per-kind metrics use these
// names as suffixes.
var kinds = []string{"passive", "active", "coverage", "backhaul", "routing"}

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json
// order. Every workload prints every one of them; README.md says where
// each comes from in each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"passive_p50_ms", "ms"},
	{"active_p50_ms", "ms"},
	{"coverage_p50_ms", "ms"},
	{"backhaul_p50_ms", "ms"},
	{"routing_p50_ms", "ms"},
	{"serve_hit_p50_ms", "ms"},
	{"serve_hit_p90_ms", "ms"},
	{"serve_fresh_p50_ms", "ms"},
	{"serve_fresh_p90_ms", "ms"},
	{"serve_shard_p50_ms", "ms"},
	{"serve_goodput_rps", "req/s"},
	{"peak_rss_mb", "MiB"},
	{"success_ratio", "ratio"},
}

// perLayer lists the metrics a --trace 1 run prints, in BENCHMARK.json
// order.
var perLayer = func() []metricDef {
	var defs []metricDef
	perKind := func(prefix, unit string) {
		for _, k := range kinds {
			defs = append(defs, metricDef{prefix + "." + k, unit})
		}
	}
	// orbit
	perKind("orbit.sgp4_calls", "count")
	perKind("orbit.eph_miss_ratio", "ratio")
	perKind("phase.ephemeris_ms", "ms")
	defs = append(defs,
		metricDef{"orbit.grid_build_ms", "ms"},
		metricDef{"orbit.pass_search_ms", "ms"},
		// channel/radio
		metricDef{"phase.contacts_ms", "ms"},
		metricDef{"radio.link_eval_ns", "ns"},
		// backhaul
		metricDef{"phase.plan_ms", "ms"},
		metricDef{"phase.satellites_ms", "ms"},
		metricDef{"backhaul.downlink_windows_ms", "ms"},
	)
	// sim
	perKind("sim.tasks", "count")
	perKind("sim.speedup", "x")
	defs = append(defs,
		metricDef{"active.simulate_ms", "ms"},
		metricDef{"sim.event_ns", "ns"},
		metricDef{"sim.event_allocs", "count"},
		// core
		metricDef{"phase.latitudes_ms", "ms"},
		metricDef{"phase.topology_ms", "ms"},
		metricDef{"phase.packets_ms", "ms"},
		metricDef{"core.unphased_ms.passive", "ms"},
		metricDef{"core.unphased_ms.coverage", "ms"},
		metricDef{"core.unphased_ms.backhaul", "ms"},
		metricDef{"core.unphased_ms.routing", "ms"},
		// netgraph
		metricDef{"netgraph.topology_builds", "count"},
		metricDef{"netgraph.isl_edges_live", "count"},
		metricDef{"netgraph.search_us", "us"},
		metricDef{"netgraph.search_allocs", "count"},
	)
	// Go runtime
	perKind("go.alloc_mb", "MiB")
	perKind("go.mallocs", "count")
	defs = append(defs, metricDef{"go.gc_pause_ms", "ms"})
	// service
	perKind("service.marshal_ms", "ms")
	defs = append(defs,
		metricDef{"http.submit_ms.p50", "ms"},
		metricDef{"http.submit_ms.p90", "ms"},
		metricDef{"http.polls_per_job", "count"},
		metricDef{"service.admission_ms", "ms"},
		metricDef{"service.queue_wait_ms.p50", "ms"},
		metricDef{"service.queue_wait_ms.p90", "ms"},
		metricDef{"service.attempt_ms.p50", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"service.dedup_ratio", "ratio"},
		metricDef{"service.config_key_us", "us"},
		// journal
		metricDef{"journal.records_per_job", "count"},
		metricDef{"journal.bytes_per_job", "bytes"},
		metricDef{"journal.append_ms.p50", "ms"},
		metricDef{"journal.append_ms.p90", "ms"},
		// cluster
		metricDef{"cluster.proxy_ms", "ms"},
		metricDef{"cluster.fanout_ms", "ms"},
		metricDef{"cluster.fold_ms", "ms"},
		metricDef{"cluster.merge_ms", "ms"},
		metricDef{"cluster.failovers", "count"},
		metricDef{"cluster.peer_fills", "count"},
		metricDef{"cluster.owner_ns", "ns"},
	)
	// tracing
	perKind("tracing.overhead_ratio", "ratio")
	defs = append(defs,
		// loadgen
		metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.failed", "count"},
		// error_ratio is 0 on a correct run, and an end-to-end metric
		// must never read 0, so success_ratio is its end-to-end mirror
		metricDef{"error_ratio", "ratio"},
	)
	return defs
}()

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
