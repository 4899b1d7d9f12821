package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"github.com/sinet-io/sinet/internal/obs"
)

// scrape renders a registry through its public Prometheus writer and
// returns every sample keyed by its series as written, e.g.
// `sinet_sgp4_calls_total` or `sinet_sim_phase_seconds_sum{phase="plan"}`.
// A nil registry yields an empty map.
func scrape(r *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sumScrapes adds the samples of several registries series by series.
func sumScrapes(rs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rs {
		for k, v := range scrape(r) {
			out[k] += v
		}
	}
	return out
}

// delta returns after[k] - before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }
