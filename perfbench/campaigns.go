package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// campaignSeeds is the number of seeds per seeded kind in the campaigns
// rotation. Coverage and backhaul specs carry no seed, so each has one
// spec: sinetd's default.
const campaignSeeds = 8

// campaign is one spec of a rotation, named by kind and index.
type campaign struct {
	Key  string // "<kind>/<index>"
	Spec *service.JobSpec
}

// campaignSpecs returns sinetd's normalized default JobSpec of every
// kind (1 simulated day; Tianqi, or the four default sites x four
// fleets for passive) with campaign seeds drawn from the workload seed.
func campaignSpecs(seed int64) map[string][]campaign {
	rng := rand.New(rand.NewSource(seed))
	pop := map[string][]campaign{}
	for _, k := range kinds {
		n := campaignSeeds
		if k == "coverage" || k == "backhaul" {
			n = 1
		}
		for i := 0; i < n; i++ {
			s := &service.JobSpec{Kind: k}
			cs := rng.Int63n(1 << 40)
			switch k {
			case "passive":
				s.Passive = &service.PassiveSpec{Seed: cs}
			case "active":
				s.Active = &service.ActiveSpec{Seed: cs}
			case "routing":
				s.Routing = &service.RoutingSpec{Seed: cs}
			}
			pop[k] = append(pop[k], campaign{Key: fmt.Sprintf("%s/%d", k, i), Spec: mustNormalize(s)})
		}
	}
	return pop
}

// rotationAt returns the i-th campaign of the closed loop: kinds rotate
// passive, active, coverage, backhaul, routing; each kind cycles through
// its seeds.
func rotationAt(pop map[string][]campaign, i int) campaign {
	list := pop[kinds[i%len(kinds)]]
	return list[(i/len(kinds))%len(list)]
}

// campaignSample is one timed service.Run call.
type campaignSample struct {
	Kind      string
	Key       string
	RunMS     float64
	MarshalMS float64
	// Traced runs only.
	Phases  map[string]float64 // phase name -> ms
	SpanMS  float64            // the benchmark's service.Run span
	PhaseMS float64            // sum of the phase spans under it
	SelfMS  float64            // service.Run span minus its phase spans
	Counter map[string]float64 // registry deltas over the call
	AllocMB float64
	Mallocs float64
	GCPause time.Duration
}

// campaignTrace is the traced run's instrumentation: a registry
// installed into orbit, sim and netgraph for the duration of each traced
// call, and a span store.
type campaignTrace struct {
	reg   *obs.Registry
	store *spanStore
	chk   *checker
}

func newCampaignTrace(store *spanStore, chk *checker) *campaignTrace {
	return &campaignTrace{reg: obs.New(), store: store, chk: chk}
}

// setMetrics points the program's process-wide instruments at r (nil
// restores the uninstrumented path).
func setMetrics(r *obs.Registry) {
	orbit.SetMetrics(r)
	sim.SetMetrics(r)
	netgraph.SetMetrics(r)
}

// runCampaign runs one spec the way figures and sinetsim users do —
// service.Run with no registry and no tracer — and times
// service.MarshalResult separately. With ct set it also wraps the call
// in the benchmark's own spans (the program's phase spans nest under
// them), takes registry and runtime deltas, and checks that the phase
// spans plus the residual account for the traced call.
func runCampaign(spec *service.JobSpec, key string, ct *campaignTrace) (campaignSample, []byte, any, error) {
	s := campaignSample{Kind: spec.Kind, Key: key}
	ctx := context.Background()
	var (
		tr          *tracing.Tracer
		op, runSpan *tracing.Span
		before      map[string]float64
		m0          runtime.MemStats
	)
	if ct != nil {
		setMetrics(ct.reg)
		defer setMetrics(nil)
		before = scrape(ct.reg)
		runtime.ReadMemStats(&m0)
		tr = tracing.New("perfbench", 256)
		op = tr.StartRoot("campaign", tracing.String("kind", spec.Kind), tracing.String("key", key))
		runSpan = tr.StartChild(op.Context(), "service.Run")
		ctx = tracing.NewContext(ctx, tr, runSpan.Context())
	}
	t0 := time.Now()
	res, err := service.Run(ctx, spec, service.RunContext{})
	s.RunMS = ms(time.Since(t0))
	runSpan.End()
	if err != nil {
		op.End()
		return s, nil, nil, err
	}
	var mk *tracing.Span
	if tr != nil {
		mk = tr.StartChild(op.Context(), "service.MarshalResult")
	}
	t1 := time.Now()
	data, err := service.MarshalResult(res)
	s.MarshalMS = ms(time.Since(t1))
	mk.End()
	op.End()
	if err != nil {
		return s, nil, nil, err
	}
	if ct == nil {
		return s, data, res, nil
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	after := scrape(ct.reg)
	s.Counter = map[string]float64{}
	for k := range after {
		s.Counter[k] = delta(before, after, k)
	}
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	s.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	spans := ct.store.addTrace(op.Context().TraceID, tr)
	var run span
	for _, sp := range spans {
		if sp.Name == "service.Run" {
			run = sp
		}
	}
	phases := childrenOf(spans, run.ID)
	s.Phases = map[string]float64{}
	var sum time.Duration
	for _, p := range phases {
		s.Phases[strings.TrimPrefix(p.Name, "phase:")] += p.ms()
		sum += p.Dur
	}
	self := selfTime(run, phases)
	s.SpanMS, s.PhaseMS, s.SelfMS = run.ms(), ms(sum), ms(self)
	// Phases run one after another: if two overlapped, their sum would
	// exceed the time they cover and the attribution would count it twice.
	overlap := run.Dur - self - sum
	if overlap < 0 {
		overlap = -overlap
	}
	ct.chk.check(run.ID != "" && len(phases) > 0 && overlap <= run.Dur/100+200*time.Microsecond,
		"%s: phase spans (sum %v) overlap or are missing under the traced call %v", key, sum, run.Dur)
	return s, data, res, nil
}

// Attribution bounds. A kind's traced time is its phase spans plus a
// stated residual: active.simulate_ms for active (the event engine, mac
// and radio run outside any phase), core.unphased_ms.<kind> for the
// others (spec set-up and result assembly around the phases).
const (
	// simulateTolerance bounds active's residual against an independent
	// measure, as a share of the untraced call (plus 0.5 ms).
	simulateTolerance = 0.10
	// unphasedCap bounds the other kinds' residual, as a share of the
	// traced call (plus 0.5 ms).
	unphasedCap = 0.25
)

// checkAttribution checks, per kind and on medians over the traced
// calls, that the phase spans plus the stated residual account for the
// campaign time. Active's residual must match an independent measure:
// the paired untraced call's time minus the traced phase times. Every
// other kind's residual must stay within unphasedCap of its traced call,
// so work that leaves the phases shows as a failure, not only as a
// larger residual.
func checkAttribution(plain, traced []campaignSample, chk *checker) {
	run := byKind(plain, func(s campaignSample) float64 { return s.RunMS })
	span := byKind(traced, func(s campaignSample) float64 { return s.SpanMS })
	phases := byKind(traced, func(s campaignSample) float64 { return s.PhaseMS })
	self := byKind(traced, func(s campaignSample) float64 { return s.SelfMS })
	for _, k := range kinds {
		if len(self[k]) == 0 {
			continue
		}
		residual := median(self[k])
		if k == "active" {
			indep := median(run[k]) - median(phases[k])
			chk.check(len(run[k]) > 0 && math.Abs(residual-indep) <= simulateTolerance*median(run[k])+0.5,
				"active: simulate residual %.2f ms, but untraced call minus phases is %.2f ms", residual, indep)
			continue
		}
		chk.check(residual <= unphasedCap*median(span[k])+0.5,
			"%s: %.2f ms of the traced call %.2f ms lies outside its phases", k, residual, median(span[k]))
	}
}

// campaignLoop is the closed loop: one client, one campaign at a time,
// rotating kinds, until the window closes. Each result's bytes must
// equal those of the first run of the same (kind, seed). With ct set,
// each step runs its campaign twice, untraced and then traced, so the
// tracing overhead compares paired runs.
func campaignLoop(pop map[string][]campaign, window time.Duration, ct *campaignTrace, chk *checker) (plain, traced []campaignSample) {
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		c := rotationAt(pop, i)
		plain, traced = pairedRun(c, ct, chk, plain, traced)
	}
	return plain, traced
}

// pairedRun runs c untraced and, with ct set, traced, appending the
// samples of the runs that succeeded.
func pairedRun(c campaign, ct *campaignTrace, chk *checker, plain, traced []campaignSample) ([]campaignSample, []campaignSample) {
	s, data, _, err := runCampaign(c.Spec, c.Key, nil)
	if chk.check(err == nil, "%s: %v", c.Key, err) {
		chk.observe(c.Key, data, true)
		plain = append(plain, s)
	}
	if ct == nil {
		return plain, traced
	}
	s, data, _, err = runCampaign(c.Spec, c.Key, ct)
	if chk.check(err == nil, "%s traced: %v", c.Key, err) {
		chk.observe(c.Key, data, true)
		traced = append(traced, s)
	}
	return plain, traced
}

// serialPass re-runs every campaign in ran at GOMAXPROCS=1: its bytes
// must equal the parallel run's, and its time is the numerator of
// sim.speedup. With sanity set it also checks the per-kind sanity
// conditions on each result.
func serialPass(specs []campaign, chk *checker, sanity bool) map[string][]float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	times := map[string][]float64{}
	for _, c := range specs {
		s, data, res, err := runCampaign(c.Spec, c.Key, nil)
		if !chk.check(err == nil, "%s serial: %v", c.Key, err) {
			continue
		}
		chk.observe(c.Key, data, false)
		if sanity {
			checkSanity(c.Key, res, chk)
		}
		times[s.Kind] = append(times[s.Kind], s.RunMS)
	}
	return times
}

// checkSanity applies the per-kind sanity conditions: passive traces
// were recorded, active reliability lies in (0, 1], and ISL relay is no
// slower than store-and-forward at the median.
func checkSanity(key string, res any, chk *checker) {
	switch r := res.(type) {
	case *core.PassiveResult:
		chk.check(r.Dataset != nil && r.Dataset.Len() > 0, "%s: passive campaign recorded no traces", key)
	case *core.ActiveResult:
		rel := r.Reliability()
		chk.check(rel > 0 && rel <= 1, "%s: active reliability %v outside (0, 1]", key, rel)
	case *core.RoutingResult:
		chk.check(r.Relay.P50Sec <= r.Store.P50Sec, "%s: relay p50 %v s above store p50 %v s", key, r.Relay.P50Sec, r.Store.P50Sec)
	}
}

// ranCampaigns lists the distinct campaigns among samples, in rotation
// order.
func ranCampaigns(pop map[string][]campaign, samples []campaignSample) []campaign {
	ran := map[string]bool{}
	for _, s := range samples {
		ran[s.Key] = true
	}
	var out []campaign
	for _, k := range kinds {
		for _, c := range pop[k] {
			if ran[c.Key] {
				out = append(out, c)
			}
		}
	}
	return out
}

// byKind groups one field of the samples by kind.
func byKind(samples []campaignSample, f func(campaignSample) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range samples {
		out[s.Kind] = append(out[s.Kind], f(s))
	}
	return out
}

// campaignLayerMetrics turns an untraced and a traced set of samples of
// the same campaigns, plus their serial times, into the campaign-layer
// per-layer metrics.
func campaignLayerMetrics(untraced, traced []campaignSample, serial map[string][]float64) map[string]float64 {
	m := map[string]float64{}
	plain := byKind(untraced, func(s campaignSample) float64 { return s.RunMS })
	tracedRun := byKind(traced, func(s campaignSample) float64 { return s.RunMS })
	counter := func(kind, name string) []float64 {
		var out []float64
		for _, s := range traced {
			if s.Kind == kind {
				out = append(out, s.Counter[name])
			}
		}
		return out
	}
	phase := func(kind, name string) float64 {
		var out []float64
		for _, s := range traced {
			if s.Kind == kind {
				out = append(out, s.Phases[name])
			}
		}
		return median(out)
	}
	var pause time.Duration
	for _, s := range traced {
		pause += s.GCPause
	}
	for _, k := range kinds {
		m["orbit.sgp4_calls."+k] = median(counter(k, "sinet_sgp4_calls_total"))
		var hits, interp, miss float64
		for _, s := range traced {
			if s.Kind == k {
				hits += s.Counter["sinet_ephemeris_hits_total"]
				interp += s.Counter["sinet_ephemeris_interp_total"]
				miss += s.Counter["sinet_ephemeris_misses_total"]
			}
		}
		if q := hits + interp + miss; q > 0 {
			m["orbit.eph_miss_ratio."+k] = miss / q
		} else {
			m["orbit.eph_miss_ratio."+k] = 0
		}
		m["phase.ephemeris_ms."+k] = phase(k, "ephemeris")
		m["sim.tasks."+k] = median(counter(k, "sinet_sim_tasks_total"))
		m["sim.speedup."+k] = median(serial[k]) / median(plain[k])
		m["go.alloc_mb."+k] = median(byKind(traced, func(s campaignSample) float64 { return s.AllocMB })[k])
		m["go.mallocs."+k] = median(byKind(traced, func(s campaignSample) float64 { return s.Mallocs })[k])
		m["service.marshal_ms."+k] = median(byKind(traced, func(s campaignSample) float64 { return s.MarshalMS })[k])
		m["tracing.overhead_ratio."+k] = median(tracedRun[k]) / median(plain[k])
	}
	if len(traced) > 0 {
		m["go.gc_pause_ms"] = ms(pause) / float64(len(traced))
	}
	m["phase.contacts_ms"] = phase("passive", "contacts")
	m["phase.plan_ms"] = phase("active", "plan")
	m["phase.satellites_ms"] = phase("backhaul", "satellites")
	m["phase.latitudes_ms"] = phase("coverage", "latitudes")
	m["phase.topology_ms"] = phase("routing", "topology")
	m["phase.packets_ms"] = phase("routing", "packets")
	self := byKind(traced, func(s campaignSample) float64 { return s.SelfMS })
	m["active.simulate_ms"] = median(self["active"])
	for _, k := range kinds {
		if k != "active" {
			m["core.unphased_ms."+k] = median(self[k])
		}
	}
	m["netgraph.topology_builds"] = median(counter("routing", "sinet_topology_builds_total"))
	m["netgraph.isl_edges_live"] = median(counter("routing", "sinet_isl_edges_live_total"))
	return m
}

// kindMedians returns the p50 run time per kind as end-to-end metrics.
func kindMedians(samples []campaignSample) map[string]float64 {
	m := map[string]float64{}
	by := byKind(samples, func(s campaignSample) float64 { return s.RunMS })
	for _, k := range kinds {
		m[k+"_p50_ms"] = median(by[k])
	}
	return m
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
