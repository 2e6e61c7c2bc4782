// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time and prints its metrics, each with its unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload replay-kv --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes a separate traced run that reports the per-layer metrics.
// --steady runs the steadiness check instead; --list prints every
// workload and metric. perfbench/README.md documents the workloads, the
// metrics and what each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see --list)")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed; %d is the default and %d the held-out seed", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", defaultRunSeconds, "measured time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	work := fs.String("work", ".bench_build", "directory for generated inputs")
	list := fs.Bool("list", false, "print every workload and metric, with units")
	steady := fs.Bool("steady", false, "run two independent sets of runs and check they agree within BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printList(stdout)
		return nil
	case *steady:
		return runSteady(stdout, *root, *work)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	stamp, err := json.Marshal(stampHost(*root))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", stamp)
	budget := time.Duration(*seconds) * time.Second
	var rep report
	if *traceFlag == 1 {
		rep, err = runTraced(stdout, w, *seed, dir, budget)
	} else {
		rep, err = runTimed(stdout, w, *seed, dir, budget)
	}
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

// failedDigest stands in for the output digest of a run that failed
// outright: it returned an error, its campaign record carries Err, or its
// closure found a violation or was truncated.
const failedDigest = "failed"

// pass accumulates the units of one measured loop.
type pass struct {
	units     int
	secs      float64 // the units' total wall time
	ops       uint64
	runs      int
	failed    int
	want      []string // per run slot, the first successful run's digest
	mallocs   uint64
	bytes     uint64
	first     unit
	probeSecs []float64
	peakRSSMB float64 // after set-up and the first unit
}

// record adds one unit's work and checks its runs.
func (p *pass) record(u unit) {
	if p.units == 0 {
		p.first = u
	}
	p.units++
	p.ops += u.ops
	p.check(u.digests)
}

// check counts one unit's runs and its failed ones. Every unit of a
// workload makes the same runs in the same order, one digest each; a run
// fails when it failed outright or when its digest differs from the
// first successful digest of the same run, so each run counts once.
func (p *pass) check(digests []string) {
	for i, d := range digests {
		if i == len(p.want) {
			p.want = append(p.want, "")
		}
		p.runs++
		switch {
		case d == failedDigest:
			p.failed++
		case p.want[i] == "":
			p.want[i] = d
		case d != p.want[i]:
			p.failed++
		}
	}
}

// measure runs units of work, untraced, until budget has elapsed (at
// least one). With probePar > 0 it also runs the host-speed probe on
// that many goroutines between units, as often as keeps the probe's time
// at probeShare of the units' time.
func measure(inst instance, budget time.Duration, probePar int) (pass, error) {
	var p pass
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var probeTotal float64
	var probeMallocs, probeBytes uint64
	for p.units == 0 || time.Since(start) < budget {
		t0 := nanotime()
		u, err := inst.run(nil)
		secs := float64(nanotime()-t0) / 1e9
		if err != nil {
			return p, err
		}
		if p.units == 0 {
			// The first probe runs after this reading, so the probe's
			// memory never counts in the program's peak.
			p.peakRSSMB = peakRSSMB()
		}
		p.record(u)
		p.secs += secs
		// The probe's own allocations are kept out of the program's.
		for probePar > 0 && probeTotal < probeShare*p.secs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s := probe(probePar)
			runtime.ReadMemStats(&m1)
			probeMallocs += m1.Mallocs - m0.Mallocs
			probeBytes += m1.TotalAlloc - m0.TotalAlloc
			p.probeSecs = append(p.probeSecs, s)
			probeTotal += s
		}
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs - probeMallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc - probeBytes
	return p, nil
}

// interleave runs on and off alternately until budget has elapsed (at
// least one pair) and returns each pair's two times, in seconds. The
// order flips from pair to pair — on off, off on, on off, … — so drift in
// the host's speed falls on both sides alike instead of on the layer.
func interleave(budget time.Duration, on, off func() error) (ons, offs []float64, err error) {
	timed := func(f func() error) (float64, error) {
		t0 := nanotime()
		err := f()
		return float64(nanotime()-t0) / 1e9, err
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		first, second := on, off
		if i%2 == 1 {
			first, second = off, on
		}
		a, err := timed(first)
		if err != nil {
			return nil, nil, err
		}
		b, err := timed(second)
		if err != nil {
			return nil, nil, err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		ons, offs = append(ons, a), append(offs, b)
	}
	return ons, offs, nil
}

// pairMedian is the median over pairs of f(on, off).
func pairMedian(ons, offs []float64, f func(on, off float64) float64) float64 {
	xs := make([]float64, len(ons))
	for i := range ons {
		xs[i] = f(ons[i], offs[i])
	}
	return median(xs)
}

// timeSetups times the workload's set-up in setupRounds rounds. A round
// sets the workload up, closing each instance, until setupRoundSecs have
// passed (at least once), then runs the host-speed probe. It returns each
// round's time per set-up in seconds, as measured and scaled to the
// nominal host by the round's probe, so that drift in the host's speed
// cancels round by round.
func timeSetups(w workload, seed uint64, dir string) (scaled, raw []float64, err error) {
	for range setupRounds {
		n := 0
		t0 := nanotime()
		for n == 0 || float64(nanotime()-t0)/1e9 < setupRoundSecs {
			inst, err := w.setup(seed, dir)
			if err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
			n++
		}
		secs := float64(nanotime()-t0) / 1e9 / float64(n)
		raw = append(raw, secs)
		scaled = append(scaled, secs*probeNominal[w.workers]/probe(w.workers))
	}
	return scaled, raw, nil
}

// report is one run's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(ms []metric, values map[string]float64, attempted, failed int) report {
	r := report{Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		r.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return r
}

func (r report) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runTimed is the untraced run: set-up, the measured loop, then the
// timed set-ups. These come last so that the probes between them stay
// out of the loop's peak RSS reading.
func runTimed(out io.Writer, w workload, seed uint64, dir string, budget time.Duration) (report, error) {
	inst, err := w.setup(seed, dir)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p, err := measure(inst, budget, w.workers)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, err
	}
	setups, rawSetups, err := timeSetups(w, seed, dir)
	if err != nil {
		return report{}, err
	}
	failed := p.failed
	ops := float64(p.ops)
	// Throughput is scaled to the nominal host (probe.go): speed is how
	// much faster than nominal this host ran during the measurement.
	speed := probeNominal[w.workers] / mean(p.probeSecs)
	rawOps, rawRuns := ops/p.secs, float64(p.runs)/p.secs
	values := map[string]float64{
		"ops_per_s":          rawOps / speed,
		"runs_per_s":         rawRuns / speed,
		"setup_s":            median(setups),
		"allocs_per_op":      float64(p.mallocs) / ops,
		"alloc_bytes_per_op": float64(p.bytes) / ops,
		"peak_rss_mb":        p.peakRSSMB,
		"ok_frac":            1 - float64(failed)/float64(p.runs),
	}
	printDigest(out, w.name, p.want)
	fmt.Fprintf(out, "units %d, runs %d, failed %d (failed_frac %g), ops %d\n",
		p.units, p.runs, failed, float64(failed)/float64(p.runs), p.ops)
	fmt.Fprintf(out, "speed %.4g × the nominal host (%d probes); raw ops_per_s %.6g, runs_per_s %.6g, setup_s %.6g\n",
		speed, len(p.probeSecs), rawOps, rawRuns, median(rawSetups))
	for _, m := range endToEnd {
		fmt.Fprintf(out, "metric %-20s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
	if len(p.first.results) > 0 {
		var s simTotals
		for _, r := range p.first.results {
			s.add(r)
		}
		sim := map[string]float64{}
		s.layerMetrics(sim)
		fmt.Fprintf(out, "simulated sim_cycles_per_ref %.6g cyc/ref, cmds_per_ref %.6g cmd/ref\n", sim["sim_cycles_per_ref"], sim["cmds_per_ref"])
	}
	return newReport(endToEnd, values, p.runs, failed), nil
}

// printDigest prints one digest over the output digest of every run of
// a unit: a simulator-only change must leave it unchanged.
func printDigest(out io.Writer, name string, digests []string) {
	var all []byte
	for _, d := range digests {
		all = append(all, d...)
	}
	fmt.Fprintf(out, "digest %s %s (%d runs)\n", name, digest(all), len(digests))
}

// runTraced is the traced run. Its first half alternates traced and
// untraced units under a CPU profile, the timing hook installed for the
// traced ones; its second half runs the workload's companion passes.
func runTraced(out io.Writer, w workload, seed uint64, dir string, budget time.Duration) (report, error) {
	inst, err := w.setup(seed, dir)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()

	tr := &tracer{}
	var p pass
	unitWith := func(tr *tracer) func() error {
		return func() error {
			u, err := inst.run(tr)
			if err != nil {
				return err
			}
			p.record(u)
			return nil
		}
	}
	profFile := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profFile)
	if err != nil {
		return report{}, err
	}
	cpu0 := readCPU()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return report{}, err
	}
	traced, untraced, err := interleave(budget/2, unitWith(tr), unitWith(nil))
	pprof.StopCPUProfile()
	cpu1 := readCPU()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, err
	}

	values, err := inst.companions(tr, budget/2, &p)
	if err != nil {
		return report{}, err
	}
	tr.layerMetrics(values)
	values["runtime.gc_cpu_frac"] = per(cpu1.gc-cpu0.gc, cpu1.busy()-cpu0.busy())
	values["trace_overhead_frac"] = pairMedian(traced, untraced, func(on, off float64) float64 { return on/off - 1 })
	shares, err := layerShares(profFile)
	if err != nil {
		return report{}, err
	}
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = shares[l]
	}

	printDigest(out, w.name, p.want)
	fmt.Fprintf(out, "traced units %d (untraced %d), runs %d, failed %d\n", len(traced), len(untraced), p.runs, p.failed)
	for _, m := range perLayer {
		fmt.Fprintf(out, "layer %-32s %12.6g %-12s moves %s on %s\n", m.name, values[m.name], m.unit, m.moves, m.on)
	}
	return newReport(perLayer, values, p.runs, p.failed), nil
}

// cpuTimes is a runtime/metrics reading of the process's CPU classes.
type cpuTimes struct{ gc, total, idle float64 }

func (c cpuTimes) busy() float64 { return c.total - c.idle }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuTimes{gc: f(0), total: f(1), idle: f(2)}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-22s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %-12s %s is better\n", m.name, m.unit, m.better)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %-12s %s is better; moves %s on %s\n", m.name, m.unit, m.better, m.moves, m.on)
	}
}

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 {
		return bf, errors.New("BENCHMARK.json: no workloads or metrics")
	}
	return bf, nil
}
