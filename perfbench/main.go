// Command perfbench is SINet's benchmark. It builds its workload from a
// seed, measures for a fixed time, checks every output against a direct
// or serial run, and prints one JSON result line last on stdout:
//
//	perfbench --workload campaigns|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds every end-to-end metric; with --trace 1
// it holds every per-layer metric, measured by a traced run of the same
// workload, and the run's spans are written to one JSON file under
// --out. README.md describes the workloads and what each metric should
// move. Run it from the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report collects one run's metrics and checks.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	chk   *checker
	store *spanStore
}

// merge copies src's metrics into dst.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "campaigns or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := fs.String("out", ".bench_build", "directory for journals and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *workload != "campaigns" && *workload != "serve-mixed" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (campaigns, serve-mixed)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}, chk: newChecker()}
	if *traced == 1 {
		r.store = newSpanStore()
	}
	window := time.Duration(*seconds) * time.Second
	switch *workload {
	case "campaigns":
		err = campaignsWorkload(r, *seed, window, dir)
	case "serve-mixed":
		err = serveMixedWorkload(r, *seed, window, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.store != nil {
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := r.store.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}

	attempted, failed, notes := r.chk.counts()
	for _, n := range notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", n)
	}
	if attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: nothing was attempted")
		return 1
	}
	r.e2e["success_ratio"] = float64(attempted-failed) / float64(attempted)
	r.layer["error_ratio"] = float64(failed) / float64(attempted)
	r.e2e["peak_rss_mb"] = peakRSSMiB()

	defs, values := endToEnd, r.e2e
	if *traced == 1 {
		defs, values = perLayer, r.layer
	}
	res := resultJSON{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// No samples: only possible when requests failed.
			fmt.Fprintf(stderr, "perfbench: metric %s has no samples\n", d.Name)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// loopWindow is how long a workload's campaign loop runs: two thirds of
// the window, which keeps a run of either workload within the
// benchmark's time budget after its serving session.
func loopWindow(window time.Duration) time.Duration { return window * 2 / 3 }

// setupRounds is how many times each workload sets up (the campaign
// loop, and every serving session); the median set-up time is reported.
const setupRounds = 5

// campaignsWorkload: serve-mixed's serving session for the serve_*
// metrics, then a closed loop, one client and one campaign at a time,
// over sinetd's default specs through the direct library path, for
// loopWindow.
func campaignsWorkload(r *report, seed int64, window time.Duration, dir string) error {
	chk := r.chk
	// The session runs first, so that it sees the process exactly as
	// serve-mixed's does. Its set-up times are not this workload's
	// setup_s, which times the campaign set-up below.
	sr, err := serveRun(r, seed, dir, window)
	if err != nil {
		return err
	}
	merge(r.e2e, sr.e2e)

	// Set-up: generate the specs and run one untimed warm-up rotation.
	var setups []float64
	var pop map[string][]campaign
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		pop = campaignSpecs(seed)
		for j := range kinds {
			c := rotationAt(pop, j)
			_, data, _, err := runCampaign(c.Spec, c.Key, nil)
			if chk.check(err == nil, "%s warm-up: %v", c.Key, err) {
				chk.observe(c.Key, data, true)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	if r.store == nil {
		samples, _ := campaignLoop(pop, loopWindow(window), nil, chk)
		merge(r.e2e, kindMedians(samples))
		serialPass(ranCampaigns(pop, samples), chk, true)
		return nil
	}
	plain, traced := campaignLoop(pop, loopWindow(window), newCampaignTrace(r.store, chk), chk)
	checkAttribution(plain, traced, chk)
	serial := serialPass(ranCampaigns(pop, plain), chk, true)
	merge(r.layer, campaignLayerMetrics(plain, traced, serial))
	merge(r.layer, sr.layer)
	var specs []*service.JobSpec
	for _, k := range kinds {
		for _, c := range pop[k] {
			specs = append(specs, c.Spec)
		}
	}
	rm, err := replayMetrics(specs, sr.frameBytes, dir)
	if err != nil {
		return err
	}
	merge(r.layer, rm)
	return nil
}

// serveMixedWorkload: one closed-loop client sends the serving stream to
// a coordinator and two workers; every served result is checked against
// a direct service.Run of its spec. The per-kind p50s come from those
// direct runs and a closed loop over the same specs after them, one
// campaign at a time as in campaigns, for loopWindow in all: the
// direct runs alone last only a few seconds, too short a stretch of a
// shared host to give a steady median.
func serveMixedWorkload(r *report, seed int64, window time.Duration, dir string) error {
	sr, err := serveRun(r, seed, dir, window)
	if err != nil {
		return err
	}
	merge(r.e2e, sr.e2e)
	r.e2e["setup_s"] = sr.setup
	if r.store == nil {
		// The reference runs are the loop's first samples; the loop
		// fills the rest of its half window.
		pop := map[string][]campaign{}
		var spent float64
		for _, s := range sr.refs {
			pop[s.Kind] = append(pop[s.Kind], campaign{Key: s.Key, Spec: sr.specs[s.Key]})
			spent += s.RunMS
		}
		rest := loopWindow(window) - time.Duration(spent*float64(time.Millisecond))
		samples, _ := campaignLoop(pop, rest, nil, r.chk)
		merge(r.e2e, kindMedians(append(sr.refs, samples...)))
		return nil
	}
	merge(r.layer, sr.layer)
	// Campaign layers on serve-mixed's own specs: paired untraced and
	// traced re-runs of up to ten reference specs per kind, and a serial
	// pass over them.
	var subset []campaign
	per := map[string]int{}
	for _, s := range sr.refs {
		if per[s.Kind] < 10 {
			per[s.Kind]++
			subset = append(subset, campaign{Key: s.Key, Spec: sr.specs[s.Key]})
		}
	}
	ct := newCampaignTrace(r.store, r.chk)
	var plain, traced []campaignSample
	for _, c := range subset {
		plain, traced = pairedRun(c, ct, r.chk, plain, traced)
	}
	checkAttribution(plain, traced, r.chk)
	serial := serialPass(subset, r.chk, false)
	merge(r.layer, campaignLayerMetrics(plain, traced, serial))
	var specs []*service.JobSpec
	for _, c := range subset {
		specs = append(specs, c.Spec)
	}
	rm, err := replayMetrics(specs, sr.frameBytes, dir)
	if err != nil {
		return err
	}
	merge(r.layer, rm)
	return nil
}
