package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twobit/internal/addr"
	"twobit/internal/mcheck"
	"twobit/internal/memtrace"
	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/sweep"
	"twobit/internal/system"
	"twobit/internal/tracegen"
	wgen "twobit/internal/workload"
)

// Input sizes and run settings. One unit of work takes 0.2 to 2 seconds
// on a 2-CPU x86-64 Xeon host, so a 20-second run yields ten or more
// units to take the median of.
const (
	kvRefsPerProc      = 40000 // replay-kv: 8 streams
	heavyRefsPerProc   = 6000  // replay-writeheavy-obs: 16 streams
	sweepRefsPerProc   = 500
	sweepReplicates    = 2
	sweepWorkers       = 2
	obsRing            = 1 << 12
	obsSpans           = 1 << 8
	obsWindow          = 2048
	obsTopK            = 64
	setupRounds        = 21
	setupRoundSecs     = 0.1
	defaultSeed        = 1
	heldOutSeed        = 7919
	defaultRunSeconds  = 20
	steadyRunsPerSet   = 10
	steadySeedStride   = 100
	mcheckRefsPerProc  = 2
	mcheckWarmupCaches = 2
	probeShare         = 0.1 // the probe's time as a share of the units'
)

// A workload is one named input set of the benchmark.
type workload struct {
	name, why string
	workers   int // goroutines doing work
	// setup builds the workload's inputs from seed, writing any files
	// under dir.
	setup func(seed uint64, dir string) (instance, error)
}

// An instance is a set-up workload.
type instance interface {
	// run performs one unit of measured work. A failed simulation is
	// reported in the unit (failedDigest), not as an error; the error is
	// for the benchmark's own faults.
	run(tr *tracer) (unit, error)
	// companions runs the workload's extra traced-run passes for about
	// budget and returns the per-layer metrics only they can measure. It
	// counts its runs, and their failures, in p, the traced run's pass.
	companions(tr *tracer, budget time.Duration, p *pass) (map[string]float64, error)
	close() error
}

// unit is the outcome of one unit of work.
type unit struct {
	ops uint64 // references simulated, or states explored
	// digests holds one output digest per run, in run order, with
	// failedDigest for a run that failed outright.
	digests []string
	results []system.Results
	outputs [][]byte // per-run encoded outputs, where the workload keeps them
}

var workloads = []workload{
	{
		name:    "replay-kv",
		why:     "one long read-mostly two-bit replay streamed from a chunked trace file: many misses, so kernel, network, core and memtrace decoding do the work",
		setup:   setupReplayKV,
		workers: 1,
	},
	{
		name:    "replay-writeheavy-obs",
		why:     "write-heavy full-map replay on an omega network with the observatory fully on: invalidations, omega contention and the obs layer",
		setup:   setupWriteHeavy,
		workers: 1,
	},
	{
		name:    "sweep-7proto",
		why:     "a campaign of short cold-start runs over all seven protocols: per-run fixed costs, quiescent checks, encoding and orchestration",
		setup:   setupSweep,
		workers: sweepWorkers,
	},
	{
		name:    "mcheck-closure",
		why:     "exhaustive state-space closures of two-bit and full-map: the only workload that reaches the model checker",
		setup:   setupMCheck,
		workers: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := ""
	for i, w := range workloads {
		if i > 0 {
			names += ", "
		}
		names += w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, names)
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runMachine builds a machine for cfg on k and runs it: one replay or
// one campaign run. With a tracer it times the layer boundaries — the
// build, every kernel event through a sim.Hook, the quiescent check after
// the last event, and the stable encoding.
func runMachine(k *sim.Kernel, cfg system.Config, gen wgen.Generator, refsPerProc int, tr *tracer) (system.Results, []byte, error) {
	k.Reset()
	k.SetHook(nil)
	t0 := nanotime()
	m, err := system.NewOnKernel(cfg, gen, k)
	if err != nil {
		return system.Results{}, nil, err
	}
	if tr != nil {
		tr.buildNs += nanotime() - t0
		tr.hook.begin(cfg.Obs)
		k.SetHook(&tr.hook)
	}
	res, err := m.Run(refsPerProc)
	if tr != nil && tr.hook.lastAfter != 0 {
		tr.checkNs += nanotime() - tr.hook.lastAfter
		tr.events += k.Processed()
	}
	if err != nil {
		return system.Results{}, nil, err
	}
	t0 = nanotime()
	enc, err := res.EncodeStable()
	if tr != nil {
		tr.encodeNs += nanotime() - t0
		tr.machineRuns++
		tr.sim.add(res)
	}
	return res, enc, err
}

// replay is a replay workload: one machine configuration driven by one
// recorded trace, one replay per unit.
type replay struct {
	cfg         system.Config
	src         memtrace.Source
	refsPerProc int
	withObs     bool
	file        string // the chunked trace, when streamed from disk
	synthNs     int64  // time spent producing the trace
	k           sim.Kernel
}

// observatory returns a recorder with every observatory feature on.
func observatory() *obs.Recorder {
	rec := obs.New(obsRing)
	rec.EnableSpans(obsSpans)
	rec.EnableWindows(obsWindow)
	rec.EnableContention(obsTopK)
	return rec
}

func setupReplayKV(seed uint64, dir string) (instance, error) {
	spec := tracegen.Resolve(tracegen.Spec{Name: "kv-serving", Procs: 8, Seed: seed})
	file := filepath.Join(dir, fmt.Sprintf("replay-kv-%d.mtrc", seed))
	t0 := nanotime()
	if err := synthesizeFile(file, spec, kvRefsPerProc); err != nil {
		return nil, err
	}
	synth := nanotime() - t0
	src, err := memtrace.OpenFile(file)
	if err != nil {
		return nil, err
	}
	return &replay{
		cfg: system.DefaultConfig(system.TwoBit, spec.Procs), src: src,
		refsPerProc: kvRefsPerProc, file: file, synthNs: synth,
	}, nil
}

func synthesizeFile(path string, spec tracegen.Spec, refsPerProc int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tracegen.Synthesize(w, spec, refsPerProc, 0, nil); err != nil {
		f.Close()
		return fmt.Errorf("synthesize %s: %w", spec.Name, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func setupWriteHeavy(seed uint64, _ string) (instance, error) {
	spec := tracegen.Resolve(tracegen.Spec{Name: "write-heavy", Procs: 16, Seed: seed})
	t0 := nanotime()
	tr := memtrace.Record(tracegen.New(spec), spec.Procs, heavyRefsPerProc)
	synth := nanotime() - t0
	cfg := system.DefaultConfig(system.FullMap, spec.Procs)
	cfg.Net = system.OmegaNet
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &replay{cfg: cfg, src: tr, refsPerProc: heavyRefsPerProc, withObs: true, synthNs: synth}, nil
}

func (r *replay) totalRefs() uint64 { return uint64(r.cfg.Procs * r.refsPerProc) }

func (r *replay) run(tr *tracer) (unit, error) {
	return r.runWith(r.cfg, r.withObs, tr), nil
}

func (r *replay) runWith(cfg system.Config, withObs bool, tr *tracer) unit {
	if withObs {
		cfg.Obs = observatory()
	}
	res, enc, err := runMachine(&r.k, cfg, r.src.Generator(), r.refsPerProc, tr)
	u := unit{ops: r.totalRefs(), digests: []string{failedDigest}}
	if err == nil && res.Refs == r.totalRefs() {
		u.digests[0] = digest(enc)
		u.results = []system.Results{res}
	}
	return u
}

// companions measures the replay's layers found by difference — the
// oracle on replay-kv, the observatory on replay-writeheavy-obs — from
// untraced replays with the layer on and off, alternated pair by pair,
// and times memtrace decoding of a streamed trace.
func (r *replay) companions(tr *tracer, budget time.Duration, p *pass) (map[string]float64, error) {
	out := map[string]float64{
		"tracegen.synth_ns_per_ref": float64(r.synthNs) / float64(r.totalRefs()),
	}
	cfg, withObs := r.cfg, r.withObs
	if r.withObs {
		withObs = false
	} else {
		cfg.Oracle = false
	}
	// Layer-off replays differ in output from the pass's, so they are
	// checked against each other.
	var off pass
	ons, offs, err := interleave(budget*3/4,
		func() error { p.record(r.runWith(r.cfg, r.withObs, nil)); return nil },
		func() error { off.record(r.runWith(cfg, withObs, nil)); return nil })
	if err != nil {
		return nil, err
	}
	p.runs += off.runs
	p.failed += off.failed
	refs := float64(r.totalRefs())
	if r.withObs {
		out["obs.overhead_frac"] = pairMedian(ons, offs, func(on, off float64) float64 { return (on - off) / on })
	} else {
		out["system.oracle_ns_per_ref"] = pairMedian(ons, offs, func(on, off float64) float64 { return (on - off) / refs * 1e9 })
	}
	if r.file != "" {
		ns, err := r.decodeNsPerRef(budget / 4)
		if err != nil {
			return nil, err
		}
		out["memtrace.decode_ns_per_ref"] = ns
	}
	return out, nil
}

// decodeNsPerRef times memtrace.ScanChunked over the workload's file.
func (r *replay) decodeNsPerRef(budget time.Duration) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) == 0 || time.Since(start) < budget {
		f, err := os.Open(r.file)
		if err != nil {
			return 0, err
		}
		n := 0
		t0 := nanotime()
		_, err = memtrace.ScanChunked(bufio.NewReader(f), func(_ int, refs []addr.Ref) error {
			n += len(refs)
			return nil
		})
		d := nanotime() - t0
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("scan %s: %w", r.file, err)
		}
		per = append(per, float64(d)/float64(n))
	}
	return median(per), nil
}

func (r *replay) close() error { return memtrace.CloseSource(r.src) }

// campaign is the sweep workload: one campaign per unit.
type campaign struct {
	plan   *sweep.Plan
	points []sweep.Point
	refs   uint64 // references simulated by one campaign
	k      sim.Kernel
}

func sweepPlan(seed uint64, replicates int) (*sweep.Plan, error) {
	plan := &sweep.Plan{
		Name:        "sweep-7proto",
		Qs:          []float64{0.05, 0.10},
		Ws:          []float64{0.2, 0.3},
		Procs:       []int{4, 8},
		Replicates:  replicates,
		RefsPerProc: sweepRefsPerProc,
		RootSeed:    seed,
	}
	for p := system.TwoBit; p <= system.Software; p++ {
		plan.Protocols = append(plan.Protocols, p.String())
	}
	plan.Normalize()
	return plan, plan.Validate()
}

func setupSweep(seed uint64, _ string) (instance, error) {
	plan, err := sweepPlan(seed, sweepReplicates)
	if err != nil {
		return nil, err
	}
	points, err := plan.Points()
	if err != nil {
		return nil, err
	}
	c := &campaign{plan: plan, points: points}
	for _, pt := range points {
		c.refs += uint64(pt.Procs * plan.RefsPerProc)
	}
	// Warm the engine with a one-replicate campaign of the same grid, so
	// heap growth and lazy initialisation are paid here rather than in the
	// first timed unit.
	warm, err := sweepPlan(seed, 1)
	if err != nil {
		return nil, err
	}
	if _, err := sweep.Collect(warm, sweepWorkers); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *campaign) run(tr *tracer) (unit, error) {
	var prog *sweep.Progress
	if tr != nil {
		prog = sweep.NewProgress(c.plan.Name, c.plan.Size())
	}
	// Every run has its slot, by run id: a run that never reports stays
	// failed.
	u := unit{ops: c.refs, digests: make([]string, len(c.points)), outputs: make([][]byte, len(c.points))}
	for i := range u.digests {
		u.digests[i] = failedDigest
	}
	err := sweep.ExecuteObserved(c.plan, sweepWorkers, 0, func(rec sweep.Record) error {
		if rec.RunID < 0 || rec.RunID >= len(c.points) {
			return fmt.Errorf("record with run id %d outside the plan's %d runs", rec.RunID, len(c.points))
		}
		if rec.Err == "" {
			u.digests[rec.RunID] = digest([]byte(fmt.Sprint(rec.RunID, rec.Seed)), rec.Results)
		}
		u.outputs[rec.RunID] = rec.Results
		return nil
	}, prog)
	if err != nil {
		return u, fmt.Errorf("campaign: %w", err)
	}
	if tr != nil {
		for _, w := range prog.Status().Workers {
			tr.workerUtil = append(tr.workerUtil, w.Utilization)
		}
	}
	return u, nil
}

// companions replays every campaign point on the benchmark's own kernel
// with the timing hook installed — the campaign builds its kernels
// inside the sweep engine, out of the hook's reach — and checks each
// replay against the campaign's stored record, byte for byte.
func (c *campaign) companions(tr *tracer, _ time.Duration, p *pass) (map[string]float64, error) {
	first := p.first
	for i, pt := range c.points {
		gen := wgen.NewSharedPrivate(wgen.SharedPrivateConfig{
			Procs: pt.Procs, SharedBlocks: c.plan.SharedBlocks, Q: pt.Q, W: pt.W,
			PrivateHit: c.plan.PrivateHit, PrivateWrite: c.plan.PrivateWrite,
			HotBlocks: c.plan.HotBlocks, ColdBlocks: c.plan.ColdBlocks, Seed: pt.Seed,
		})
		_, enc, err := runMachine(&c.k, c.plan.Config(pt), gen, c.plan.RefsPerProc, tr)
		p.runs++
		if err != nil || i >= len(first.outputs) || string(enc) != string(first.outputs[i]) {
			p.failed++
		}
	}
	return map[string]float64{}, nil
}

func (c *campaign) close() error { return nil }

// closure is the model-checker workload: every configuration closed
// once per unit.
type closure struct {
	cfgs []mcheck.Config
}

func mcheckConfig(p mcheck.Protocol, caches, blocks int) mcheck.Config {
	cfg := mcheck.DefaultConfig()
	cfg.Protocol, cfg.Caches, cfg.Blocks, cfg.Sets, cfg.RefsPerProc = p, caches, blocks, 1, mcheckRefsPerProc
	return cfg
}

// setupMCheck has no random input: the closures are exhaustive, so the
// seed changes nothing. Set-up validates the configurations and closes
// the smallest machine once to warm the checker.
func setupMCheck(uint64, string) (instance, error) {
	c := &closure{cfgs: []mcheck.Config{
		mcheckConfig(mcheck.TwoBit, 3, 1),
		mcheckConfig(mcheck.TwoBit, 2, 2),
		mcheckConfig(mcheck.FullMap, 2, 2),
	}}
	for _, cfg := range c.cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	if _, err := mcheck.Check(mcheckConfig(mcheck.TwoBit, mcheckWarmupCaches, 1)); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *closure) run(tr *tracer) (unit, error) {
	var u unit
	for _, cfg := range c.cfgs {
		t0 := nanotime()
		res, err := mcheck.Check(cfg)
		d := nanotime() - t0
		if err != nil || res.Violation != nil || res.Truncated {
			u.digests = append(u.digests, failedDigest)
			continue
		}
		u.ops += uint64(res.States)
		u.digests = append(u.digests, digest([]byte(fmt.Sprintf("%s %dx%dx%d states=%d edges=%d rest=%d depth=%d",
			cfg.Protocol, cfg.Caches, cfg.Blocks, cfg.Sets, res.States, res.Edges, res.RestStates, res.Depth))))
		if tr != nil {
			tr.mcStates += res.States
			tr.mcEdges += res.Edges
			tr.mcNs += d
			tr.mcConfigs++
		}
	}
	if tr != nil {
		tr.mcUnit = int(u.ops)
	}
	return u, nil
}

func (c *closure) companions(*tracer, time.Duration, *pass) (map[string]float64, error) {
	return map[string]float64{}, nil
}

func (c *closure) close() error { return nil }
