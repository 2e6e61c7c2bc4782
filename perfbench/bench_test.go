package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// validName is the benchmark's rule for metric and workload names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !validName.MatchString(name) {
			t.Errorf("name %q does not match %s", name, validName)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name)
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better is %q", m.name, m.better)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code in step:
// the same workloads and metrics, with the same units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}
}

// TestQuartiles pins the helpers to Python's statistics.median and
// statistics.quantiles(xs, n=4), which the bounds are judged by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10.5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := median(tc.xs); q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median and mean of nothing should be NaN")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"twobit/internal/sim.(*Kernel).Step":                "sim",
		"twobit/internal/core.(*Controller).readMiss.func1": "core",
		"twobit/internal/stats.(*Histogram).Observe":        "other",
		"runtime.mapaccess2_fast64":                         "runtime.map",
		"internal/runtime/maps.ctrlGroup.matchH2":           "runtime.map",
		"runtime.memhash64":                                 "runtime.map",
		"runtime.mallocgc":                                  "runtime.malloc",
		"runtime.growslice":                                 "runtime.malloc",
		"runtime.gcBgMarkWorker":                            "runtime.gc",
		"runtime.scanobject":                                "runtime.gc",
		"runtime.nanotime":                                  "trace",
		"main.(*eventHook).BeforeEvent":                     "trace",
		"runtime.memmove":                                   "other",
		"":                                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseTop groups a `pprof -top -unit=ns` listing by layer: the flat
// column of an inlined map access counts as runtime.map, not as the sim
// function it was inlined into.
func TestParseTop(t *testing.T) {
	listing := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 400000000ns (40.00%)
Showing nodes accounting for 400000000ns, 100% of 400000000ns total
      flat  flat%   sum%        cum   cum%
200000000ns 50.00% 50.00% 200000000ns 50.00%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
100000000ns 25.00% 75.00% 400000000ns 100%  twobit/internal/sim.(*Kernel).Step
100000000ns 25.00%   100% 100000000ns 25.00%  runtime.mapaccess2_fast64
         0     0%   100% 400000000ns   100%  main.main
`
	shares, err := parseTop([]byte(listing))
	if err != nil {
		t.Fatal(err)
	}
	if shares["runtime.map"] != 0.75 || shares["sim"] != 0.25 || len(shares) != 3 || shares["trace"] != 0 {
		t.Errorf("shares = %v, want runtime.map 0.75, sim 0.25, trace 0", shares)
	}
	empty := "Showing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n"
	if shares, err := parseTop([]byte(empty)); err != nil || len(shares) != 0 {
		t.Errorf("empty profile: %v, %v", shares, err)
	}
	if _, err := parseTop([]byte("not a listing")); err == nil {
		t.Error("a listing without a table parsed without error")
	}
}

// fakeInstance plays back scripted units: each unit is a list of run
// outcomes, "ok" for the normal output, "bad" for a perturbed output and
// failedDigest for a run that failed outright.
type fakeInstance struct {
	units [][]string
	n     int
}

func (f *fakeInstance) run(*tracer) (unit, error) {
	u := unit{ops: 10}
	for _, r := range f.units[f.n%len(f.units)] {
		switch r {
		case "ok":
			u.digests = append(u.digests, digest([]byte("output")))
		case "bad":
			u.digests = append(u.digests, digest([]byte("output'")))
		default:
			u.digests = append(u.digests, r)
		}
	}
	f.n++
	return u, nil
}

func (f *fakeInstance) companions(*tracer, time.Duration, *pass) (map[string]float64, error) {
	return nil, nil
}

func (f *fakeInstance) close() error { return nil }

// recordAll feeds every scripted unit through a pass.
func recordAll(t *testing.T, f *fakeInstance) pass {
	t.Helper()
	var p pass
	for range f.units {
		u, err := f.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		p.record(u)
	}
	return p
}

func TestPerturbedDigestIsFailure(t *testing.T) {
	p := recordAll(t, &fakeInstance{units: [][]string{{"ok"}, {"ok"}, {"bad"}, {"ok"}, {"ok"}}})
	if p.runs != 5 || p.failed != 1 {
		t.Fatalf("runs %d, failed %d; want 5 runs, 1 failed (the perturbed unit)", p.runs, p.failed)
	}
	if rep := newReport(endToEnd, map[string]float64{}, p.runs, p.failed); rep.Correct {
		t.Error("a run with a perturbed digest reported correct")
	}
}

// TestFailedRunsCountOnce: a run that failed outright counts once, the
// runs after it in the same unit are still compared with their own
// reference, and a failure in the first unit does not make the healthy
// units after it fail.
func TestFailedRunsCountOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		units  [][]string
		failed int
	}{
		{"healthy", [][]string{{"ok", "ok", "ok"}, {"ok", "ok", "ok"}}, 0},
		{"first unit fails", [][]string{{failedDigest, "ok", "ok"}, {"ok", "ok", "ok"}, {"ok", "ok", "ok"}}, 1},
		{"later unit fails", [][]string{{"ok", "ok", "ok"}, {"ok", failedDigest, "ok"}, {"ok", "ok", "ok"}}, 1},
		{"failure and mismatch", [][]string{{failedDigest, "ok", "ok"}, {"ok", failedDigest, "bad"}}, 3},
		{"every unit fails", [][]string{{failedDigest}, {failedDigest}}, 2},
	} {
		p := recordAll(t, &fakeInstance{units: tc.units})
		runs := 0
		for _, u := range tc.units {
			runs += len(u)
		}
		if p.runs != runs || p.failed != tc.failed {
			t.Errorf("%s: runs %d, failed %d; want %d, %d", tc.name, p.runs, p.failed, runs, tc.failed)
		}
	}
}

// TestMeasureCountsFailures runs scripted units through the timed loop.
func TestMeasureCountsFailures(t *testing.T) {
	f := &fakeInstance{units: [][]string{{failedDigest, "ok"}, {"ok", "ok"}}}
	p, err := measure(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.units != 1 || p.runs != 2 || p.failed != 1 || p.ops != 10 {
		t.Errorf("units %d, runs %d, failed %d, ops %d; want 1, 2, 1, 10", p.units, p.runs, p.failed, p.ops)
	}
}

func TestInterleave(t *testing.T) {
	var order []string
	on := func() error { order = append(order, "on"); return nil }
	off := func() error { order = append(order, "off"); return nil }
	ons, offs, err := interleave(0, on, off)
	if err != nil || len(ons) != 1 || len(offs) != 1 || len(order) != 2 || order[0] != "on" {
		t.Fatalf("one pair: %v %v %v %v", ons, offs, order, err)
	}
	if got := pairMedian([]float64{3, 5, 9}, []float64{1, 2, 4}, func(a, b float64) float64 { return a - b }); got != 3 {
		t.Errorf("pairMedian = %g, want 3", got)
	}
}

func TestVerdict(t *testing.T) {
	set := func(xs ...float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"m": xs}}
	}
	steady := []map[string]map[string][]float64{set(100, 101, 99, 100, 102), set(101, 100, 100, 99, 101)}
	if v := verdictFor("m", 0.1, steady, "w"); !v.agree || !v.tight {
		t.Errorf("steady sets: %+v", v)
	}
	shifted := []map[string]map[string][]float64{set(100, 101, 99, 100, 102), set(130, 131, 129, 130, 132)}
	if v := verdictFor("m", 0.1, shifted, "w"); v.agree {
		t.Errorf("shifted sets agree: %+v", v)
	}
	noisy := []map[string]map[string][]float64{set(50, 100, 150, 100, 100), set(50, 100, 150, 100, 100)}
	if v := verdictFor("m", 0.1, noisy, "w"); v.agree {
		t.Errorf("noisy sets agree: %+v", v)
	}
	noisySetup := []map[string]map[string][]float64{
		{"w": {"setup_s": {50, 100, 150, 100, 100}}}, {"w": {"setup_s": {50, 100, 150, 100, 100}}},
	}
	if v := verdictFor("setup_s", 0.1, noisySetup, "w"); v.agree {
		t.Errorf("a noisy setup_s agrees: %+v", v)
	}
}

// TestWorkloadsSmoke sets every workload up and runs one unit of each,
// twice, checking the output digests repeat.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		inst, err := w.setup(defaultSeed, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		a, err := inst.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := inst.run(&tracer{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var p pass
		p.record(a)
		p.record(b)
		if p.runs == 0 || p.failed != 0 {
			t.Errorf("%s: runs %d, failed %d (untraced, then traced)", w.name, p.runs, p.failed)
		}
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
	}
}
