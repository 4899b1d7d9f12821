package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

// serveResult is one serving session's measurements.
type serveResult struct {
	e2e        map[string]float64
	layer      map[string]float64
	setup      float64                     // median set-up seconds
	refs       []campaignSample            // direct runs of served non-shard specs
	specs      map[string]*service.JobSpec // every spec by content key
	frameBytes int                         // median journal frame size
}

// startSession brings a cluster up, waits until every server is ready,
// and primes the hit population.
func startSession(dir string, hits []arrival) (*loadgen, []outcome, error) {
	bc, err := startCluster(dir)
	if err != nil {
		return nil, nil, err
	}
	lg := &loadgen{c: newClient(), bc: bc}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := bc.waitReady(ctx, lg.c); err != nil {
		lg.close()
		return nil, nil, err
	}
	primed, err := lg.prime(hits)
	if err != nil {
		lg.close()
		return nil, nil, err
	}
	return lg, primed, nil
}

// close drains the cluster and drops the client's idle connections.
// service.New points the orbit, sim and netgraph instruments at the
// newest server's registry, so close points them back at nothing: work
// after a session runs uninstrumented, as in the campaigns loop.
func (lg *loadgen) close() error {
	err := lg.bc.close()
	lg.c.close()
	setMetrics(nil)
	return err
}

// primeSchedule is the hit population as requests that prime the caches.
func primeSchedule(seed int64) []arrival {
	var out []arrival
	for _, s := range hitSpecs(seed) {
		out = append(out, arrival{Class: classFresh, Spec: s, Key: specKey(s)})
	}
	return out
}

// timeSetup brings a session up, drains it again, and returns the
// set-up time in seconds.
func timeSetup(dir string, seed int64) (float64, error) {
	prime := primeSchedule(seed)
	t0 := time.Now()
	lg, _, err := startSession(dir, prime)
	if err != nil {
		return 0, fmt.Errorf("serving set-up: %w", err)
	}
	setup := time.Since(t0).Seconds()
	return setup, lg.close()
}

// serveRun sets a session up setupRounds times, sends the serving
// stream's blocks for the window to the last one, and checks every
// result against a direct service.Run of its spec. The earlier set-ups
// are drained again; besides their times (the median is reported) they
// warm the process: a first session in a fresh process read 1.3-2.6x
// higher hit p90 than one after four set-ups, in four runs out of four.
func serveRun(r *report, seed int64, dir string, window time.Duration) (*serveResult, error) {
	chk := r.chk
	var setups []float64
	for i := 1; i < setupRounds; i++ {
		t, err := timeSetup(filepath.Join(dir, fmt.Sprintf("setup%d", i)), seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	primeSched := primeSchedule(seed)
	t0 := time.Now()
	lg, primed, err := startSession(filepath.Join(dir, "serve"), primeSched)
	if err != nil {
		return nil, fmt.Errorf("serving set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	lg.store = r.store

	n := int(math.Round(blocksPerSecond*window.Seconds())) * blockSize
	t1 := time.Now()
	outs := lg.runSession(newStream(seed, primeSched), n)
	elapsed := time.Since(t1)
	sums := sumScrapes(lg.bc.regs...)
	closeErr := lg.close()
	chk.check(closeErr == nil, "cluster shutdown: %v", closeErr)
	journals := lg.bc.journals
	// Release the servers' caches and job tables, and return their pages
	// to the OS, so the reference runs and campaign loops below start
	// from a small heap: the peak RSS is then the session's, not the
	// session's plus whatever of the later runs' garbage the collector
	// happened not to reuse.
	lg = nil
	debug.FreeOSMemory()

	res := &serveResult{e2e: map[string]float64{}, layer: map[string]float64{},
		setup: median(setups), specs: map[string]*service.JobSpec{}}

	// References: one direct, untraced service.Run per served spec.
	all := append(primed, outs...)
	shard := map[string]bool{}
	for _, o := range all {
		if o.HasBytes {
			res.specs[o.Key] = o.Spec
		}
		if o.Class == classShard {
			shard[o.Key] = true
		}
	}
	for _, k := range sortedKeys(res.specs) {
		s, data, _, err := runCampaign(res.specs[k], k, nil)
		if !chk.check(err == nil, "%s reference: %v", k, err) {
			continue
		}
		chk.reference(k, data)
		if !shard[k] {
			res.refs = append(res.refs, s)
		}
	}

	// Every served result must equal its reference; a request that
	// failed, was refused or saw a 5xx counts as failed; a cancel must
	// end canceled or done.
	good := 0
	lat := map[string][]float64{}
	failed := 0
	for i, o := range all {
		ok := false
		switch {
		case o.Err != "":
			chk.check(false, "%s %s request: %s", o.Class, o.Kind, o.Err)
		case o.HasBytes:
			ok = chk.observeDigest(o.Key, o.Digest, false)
		default:
			ok = chk.check(o.Class == classCancel && o.State == "canceled", "%s %s ended %s", o.Class, o.Kind, o.State)
		}
		if i < len(primed) {
			continue
		}
		if !ok {
			failed++
			continue
		}
		lat[o.Class] = append(lat[o.Class], ms(o.Latency))
		if o.Latency <= latencyLimit[o.Class] {
			good++
		}
	}
	res.e2e["serve_hit_p50_ms"] = quantile(lat[classHit], 0.5)
	res.e2e["serve_hit_p90_ms"] = quantile(lat[classHit], 0.9)
	res.e2e["serve_fresh_p50_ms"] = quantile(lat[classFresh], 0.5)
	res.e2e["serve_fresh_p90_ms"] = quantile(lat[classFresh], 0.9)
	res.e2e["serve_shard_p50_ms"] = median(lat[classShard])
	res.e2e["serve_goodput_rps"] = float64(good) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: served %d requests (%d failed, %d within their limits) in %v\n",
		len(outs), failed, good, elapsed.Round(time.Millisecond))
	for _, c := range classOrder {
		if xs := lat[c]; len(xs) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench:   %-6s n %5d  p50 %7.2f ms  p90 %7.2f ms  limit %v\n",
				c, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), latencyLimit[c])
		}
	}
	if r.store == nil {
		return res, nil
	}

	// Traced: the requests' spans are in the store already; add the
	// registries and journals.
	L := res.layer
	submit := r.store.named("http.submit")
	L["http.submit_ms.p50"] = quantile(submit, 0.5)
	L["http.submit_ms.p90"] = quantile(submit, 0.9)
	var polls []float64
	for _, o := range outs {
		if o.Class != classHit && o.Class != classDirect {
			polls = append(polls, float64(o.Polls))
		}
	}
	L["http.polls_per_job"] = mean(polls)
	L["service.admission_ms"] = median(r.store.named("admission"))
	wait := r.store.named("queue.wait")
	L["service.queue_wait_ms.p50"] = quantile(wait, 0.5)
	L["service.queue_wait_ms.p90"] = quantile(wait, 0.9)
	L["service.attempt_ms.p50"] = median(r.store.named("attempt"))
	hitsN, missN := sums["sinet_cache_hits_total"], sums["sinet_cache_misses_total"]
	L["service.cache_hit_ratio"] = hitsN / (hitsN + missN)
	L["service.dedup_ratio"] = sums["sinet_dedup_total"] / sums[`sinet_admission_total{code="202"}`]
	L["cluster.proxy_ms"] = median(lat[classHit]) - median(lat[classDirect])
	L["cluster.fanout_ms"] = median(r.store.named("fanout"))
	L["cluster.fold_ms"] = median(r.store.named("checkpoint.fold"))
	L["cluster.merge_ms"] = median(r.store.named("merge"))
	L["cluster.failovers"] = sums["sinet_cluster_failovers_total"]
	L["cluster.peer_fills"] = sums["sinet_cluster_peer_cache_lookups_total"] + sums["sinet_peer_cache_fills_total"]
	L["loadgen.sent"] = float64(len(outs))
	L["loadgen.failed"] = float64(failed)
	recs, bytes, frames, err := journalStats(journals)
	if err != nil {
		return nil, err
	}
	L["journal.records_per_job"] = recs
	L["journal.bytes_per_job"] = bytes
	res.frameBytes = int(median(frames))
	return res, nil
}
