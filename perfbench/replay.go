package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/cluster"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/radio"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/sim"
)

// Layer replay: the benchmark times single public calls itself, on the
// campaigns workload's inputs (Tianqi, one simulated day from the
// default start, the four default sites), so each replay number compares
// directly with the phase that makes the same calls.

// replayRounds is how many times each replay repeats; the median counts.
const replayRounds = 5

var replayStart = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// timeRounds runs f replayRounds times and returns the median wall time.
func timeRounds(f func()) time.Duration {
	var xs []float64
	for i := 0; i < replayRounds; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs))
}

// allocsPer returns heap allocations per op over one call of f doing n ops.
func allocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func tianqiGrid(end time.Time, scan time.Duration) (*orbit.EphemerisGrid, []*orbit.Propagator, error) {
	props, err := constellation.Tianqi(replayStart).Propagators()
	if err != nil {
		return nil, nil, err
	}
	g := orbit.NewEphemerisGrid(props, replayStart, end, orbit.EphemerisConfig{ScanStep: scan})
	g.PropagateAll()
	g.Finish()
	return g, props, nil
}

// replayMetrics times every replayed call. specs feed ConfigKey and ring
// placement; frameBytes is the journal record size seen while serving.
func replayMetrics(specs []*service.JobSpec, frameBytes int, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	day := replayStart.Add(24 * time.Hour)

	// orbit: grid build (NewEphemerisGrid + PropagateAll) and pass search.
	props, err := constellation.Tianqi(replayStart).Propagators()
	if err != nil {
		return nil, err
	}
	m["orbit.grid_build_ms"] = ms(timeRounds(func() {
		g := orbit.NewEphemerisGrid(props, replayStart, day, orbit.EphemerisConfig{ScanStep: time.Minute})
		g.PropagateAll()
		g.Finish()
	}))
	grid, _, err := tianqiGrid(day, time.Minute)
	if err != nil {
		return nil, err
	}
	var sites []orbit.Geodetic
	for _, code := range defaultSites {
		s, _ := core.SiteByCode(code)
		sites = append(sites, s.Location)
	}
	var passes []orbit.Pass
	m["orbit.pass_search_ms"] = ms(timeRounds(func() {
		for i := 0; i < grid.Sats(); i++ {
			pp := orbit.NewEphemerisPredictor(grid.Sat(i))
			for _, site := range sites {
				passes = pp.PassesAppend(passes[:0], site, replayStart, day, 0)
			}
		}
	}))

	// radio: one uplink frame through Link.Transmit over LEO geometries.
	cons := constellation.Tianqi(replayStart)
	link := radio.NewLink(lora.DefaultDtSParams(), core.DtSUplinkBudget(22, channel.FiveEighthsWave),
		channel.NewModel(sim.NewRNG(1, "perfbench/chan")), cons.FreqMHz, sim.NewRNG(1, "perfbench/rx"))
	const frames = 50000
	geo := make([]radio.Geometry, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range geo {
		geo[i] = radio.Geometry{At: replayStart.Add(time.Duration(i) * 30 * time.Second),
			DistanceKm: 900 + 2000*rng.Float64(), ElevationRad: 0.1 + 1.4*rng.Float64(), RangeRateKmS: 7*rng.Float64() - 3.5}
	}
	m["radio.link_eval_ns"] = float64(timeRounds(func() {
		for i := 0; i < frames; i++ {
			link.Transmit(geo[i%len(geo)], channel.Sunny, 20)
		}
	})) / frames

	// backhaul: downlink windows of all 22 satellites at a 1 min step.
	seg := backhaul.TianqiGroundSegment()
	m["backhaul.downlink_windows_ms"] = ms(timeRounds(func() {
		for i := 0; i < grid.Sats(); i++ {
			seg.DownlinkWindows(grid.Sat(i), replayStart, day, time.Minute)
		}
	}))

	// sim: Engine.Schedule + Run of a day of events at random times.
	const events = 100000
	at := make([]time.Time, events)
	for i := range at {
		at[i] = replayStart.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
	}
	runEngine := func() {
		e := sim.NewEngine(replayStart)
		noop := func(*sim.Engine) {}
		for _, t := range at {
			_ = e.Schedule(t, noop)
		}
		e.Run(day)
	}
	m["sim.event_ns"] = float64(timeRounds(runEngine)) / events
	m["sim.event_allocs"] = allocsPer(events, runEngine)

	// netgraph: DeliverySearch.Earliest on the routing campaign's graph.
	horizon := day.Add(4 * time.Hour)
	rgrid, _, err := tianqiGrid(horizon, netgraph.DefaultSnapshotStep)
	if err != nil {
		return nil, err
	}
	graph, err := netgraph.New(rgrid, seg.Stations, replayStart, horizon, netgraph.Config{
		SnapshotStep:    netgraph.DefaultSnapshotStep,
		MaxISLRangeKm:   netgraph.DefaultMaxISLRangeKm,
		HopProcessing:   netgraph.DefaultHopProcessing,
		MinElevationRad: seg.MinElevationRad,
	})
	if err != nil {
		return nil, err
	}
	if err := graph.BuildAll(nil); err != nil {
		return nil, err
	}
	var searches int
	search := func() {
		searches = 0
		for i := 0; i < rgrid.Sats(); i++ {
			s := netgraph.NewDeliverySearch(graph)
			for o := replayStart; o.Before(day); o = o.Add(30 * time.Minute) {
				s.Earliest(i, o)
				searches++
			}
		}
	}
	search()
	m["netgraph.search_us"] = float64(timeRounds(search)) / float64(searches) / 1e3
	m["netgraph.search_allocs"] = allocsPer(searches, search)

	// service: ConfigKey over the workload's specs.
	const keyCalls = 20000
	m["service.config_key_us"] = float64(timeRounds(func() {
		for i := 0; i < keyCalls; i++ {
			_, _ = service.ConfigKey(specs[i%len(specs)])
		}
	})) / keyCalls / 1e3

	// cluster: bounded-load ring placement of the workload's keys.
	ring := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	var keys []string
	for _, s := range specs {
		k, _ := service.ConfigKey(s)
		keys = append(keys, string(k))
	}
	load := map[string]int{"http://127.0.0.1:1": 1}
	loadOf := func(p string) int { return load[p] }
	const ownerCalls = 50000
	m["cluster.owner_ns"] = float64(timeRounds(func() {
		for i := 0; i < ownerCalls; i++ {
			ring.OwnerBounded(keys[i%len(keys)], loadOf, 1.25)
		}
	})) / ownerCalls

	// journal: sequential Append (each waits for its group-commit fsync)
	// of records the size serving wrote.
	p50, p90, err := replayJournal(filepath.Join(dir, "replay.journal"), frameBytes)
	if err != nil {
		return nil, err
	}
	m["journal.append_ms.p50"], m["journal.append_ms.p90"] = p50, p90
	return m, nil
}

func replayJournal(path string, frameBytes int) (p50, p90 float64, err error) {
	j, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	// A checkpoint record whose unit payload (base64 in the frame)
	// brings the frame to the observed size.
	probe, err := journal.AppendFrame(nil, journal.Record{Op: journal.OpCheckpoint, JobID: "j000001-replay", Phase: "packets", Index: 100, Total: 200})
	if err != nil {
		j.Close()
		return 0, 0, err
	}
	pad := (frameBytes - len(probe) - 10) * 3 / 4
	if pad < 0 {
		pad = 0
	}
	rec := journal.Record{Op: journal.OpCheckpoint, JobID: "j000001-replay", Phase: "packets", Total: 200, Unit: make([]byte, pad)}
	var xs []float64
	for i := 0; i < 200; i++ {
		rec.Index = i
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return 0, 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	return quantile(xs, 0.5), quantile(xs, 0.9), nil
}
