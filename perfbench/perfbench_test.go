package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/obs"
)

// streamKeys lists the first n requests of a seed's serving stream,
// dups included.
func streamKeys(seed int64, n int) []string {
	st := newStream(seed, primeSchedule(seed))
	var out []string
	for len(out) < n {
		a := st.next()
		out = append(out, fmt.Sprintf("%s|%s|%v", a.Class, a.Key, a.PollPhase))
		if a.Dup != nil {
			out = append(out, fmt.Sprintf("%s|%s|%v", a.Dup.Class, a.Dup.Key, a.Dup.PollPhase))
		}
	}
	return out[:n]
}

func TestStreamSameSeedSameRequests(t *testing.T) {
	a, b, c := streamKeys(7, 400), streamKeys(7, 400), streamKeys(8, 400)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs for the same seed: %s vs %s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// Every block holds exactly serveBlock's mix, each run of five fresh
// (or cancelled) jobs holds every kind once, every fresh, cancelled or
// sharded spec is new, and hits deal the whole population before any
// spec repeats.
func TestStreamMix(t *testing.T) {
	const blocks = 6
	block := 0
	for _, n := range serveBlock {
		block += n
	}
	for seed := int64(1); seed <= 5; seed++ {
		st := newStream(seed, primeSchedule(seed))
		counts := map[string]int{}
		kindsOf := map[string][]string{}
		seen := map[string]bool{}
		var hits []string
		for n := 0; n < blocks*block; {
			a := st.next()
			reqs := []arrival{a}
			if a.Dup != nil {
				reqs = append(reqs, *a.Dup)
				if a.Dup.Key != a.Key {
					t.Fatalf("seed %d: dup key %s differs from its fresh job's %s", seed, a.Dup.Key, a.Key)
				}
			}
			for _, r := range reqs {
				counts[r.Class]++
				n++
			}
			switch a.Class {
			case classFresh, classCancel, classShard:
				if seen[a.Key] {
					t.Fatalf("seed %d: %s spec %s repeats", seed, a.Class, a.Key)
				}
				seen[a.Key] = true
				kindsOf[a.Class] = append(kindsOf[a.Class], a.Spec.Kind)
			case classHit, classDirect:
				hits = append(hits, a.Key)
			}
		}
		for _, c := range classOrder {
			if counts[c] != blocks*serveBlock[c] {
				t.Errorf("seed %d: %d %s requests in %d blocks, want %d", seed, counts[c], c, blocks, blocks*serveBlock[c])
			}
		}
		for _, c := range []string{classFresh, classCancel} {
			ks := kindsOf[c]
			for i := 0; i+len(kinds) <= len(ks); i += len(kinds) {
				got := map[string]bool{}
				for _, k := range ks[i : i+len(kinds)] {
					got[k] = true
				}
				if len(got) != len(kinds) {
					t.Errorf("seed %d: %s kinds %v at %d miss a kind", seed, c, ks[i:i+len(kinds)], i)
				}
			}
		}
		first := map[string]bool{}
		for _, k := range hits[:hitPopulation] {
			first[k] = true
		}
		if len(first) != hitPopulation {
			t.Errorf("seed %d: the first %d hits cover %d specs, want all", seed, hitPopulation, len(first))
		}
	}
}

// The checker must count a corrupted result as a failure.
func TestCheckerCountsCorruptedResult(t *testing.T) {
	spec := newSpecGen(3, "test").small("coverage")
	_, data, _, err := runCampaign(spec, "coverage/test", nil)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker()
	chk.reference("k", data)
	if !chk.observe("k", data, false) {
		t.Fatal("identical bytes rejected")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if chk.observe("k", bad, false) {
		t.Fatal("corrupted bytes accepted")
	}
	if chk.observe("missing", data, false) {
		t.Fatal("result without a reference accepted")
	}
	attempted, failed, _ := chk.counts()
	if attempted != 3 || failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", attempted, failed)
	}
	// adopt: the first observation becomes the reference.
	chk2 := newChecker()
	if !chk2.observe("k", data, true) || chk2.observe("k", bad, true) {
		t.Fatal("adopted reference not enforced")
	}
}

// The attribution check must fail when a kind's time is not accounted
// for: a passive call with most of its time outside its phases, and an
// active call whose residual disagrees with the untraced call minus its
// phases.
func TestAttributionCatchesUnaccountedTime(t *testing.T) {
	sample := func(kind string, run, phases float64) campaignSample {
		return campaignSample{Kind: kind, RunMS: run, SpanMS: run, PhaseMS: phases, SelfMS: run - phases}
	}
	cases := []struct {
		name          string
		plain, traced []campaignSample
		failed        int
	}{
		{"accounted",
			[]campaignSample{sample("passive", 50, 0), sample("active", 70, 0)},
			[]campaignSample{sample("passive", 51, 46), sample("active", 71, 55)}, 0},
		{"passive gap",
			[]campaignSample{sample("passive", 50, 0)},
			[]campaignSample{sample("passive", 50, 20)}, 1},
		{"active residual not in the untraced call",
			[]campaignSample{sample("active", 55, 0)},
			[]campaignSample{sample("active", 75, 55)}, 1},
	}
	for _, c := range cases {
		chk := newChecker()
		checkAttribution(c.plain, c.traced, chk)
		if _, failed, notes := chk.counts(); failed != c.failed {
			t.Errorf("%s: %d failed, want %d (%v)", c.name, failed, c.failed, notes)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	parent := span{ID: "p", Start: t0, Dur: 100 * time.Millisecond}
	kids := []span{
		{Parent: "p", Start: t0.Add(10 * time.Millisecond), Dur: 30 * time.Millisecond}, // 10-40
		{Parent: "p", Start: t0.Add(30 * time.Millisecond), Dur: 20 * time.Millisecond}, // 30-50 overlaps
		{Parent: "p", Start: t0.Add(90 * time.Millisecond), Dur: 30 * time.Millisecond}, // 90-120 clipped to 100
		{Parent: "p", Start: t0.Add(60 * time.Millisecond), Dur: 0},                     // empty
	}
	if got, want := selfTime(parent, kids), 50*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != parent.Dur {
		t.Fatalf("self time without children %v, want %v", got, parent.Dur)
	}
}

func TestScrapeReadsRegistry(t *testing.T) {
	r := obs.New()
	r.Counter("a_total", "a").Add(3)
	r.CounterVec("b_total", "b", "code").With("202").Add(2)
	r.Histogram("c_seconds", "c", []float64{1}).Observe(0.5)
	got := scrape(r)
	for k, want := range map[string]float64{"a_total": 3, `b_total{code="202"}`: 2, "c_seconds_sum": 0.5, "c_seconds_count": 1} {
		if got[k] != want {
			t.Errorf("%s = %v, want %v (scrape %v)", k, got[k], want, got)
		}
	}
}

// BENCHMARK.json and the tables the command prints from must agree.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, endToEnd)
	cmp("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != 2 || b.Workloads[0].Name != "campaigns" || b.Workloads[1].Name != "serve-mixed" {
		t.Errorf("workloads %+v, want campaigns and serve-mixed", b.Workloads)
	}
}
