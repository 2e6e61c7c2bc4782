package main

import (
	"time"

	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/system"
)

var epoch = time.Now()

// nanotime is monotonic wall time in nanoseconds since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// eventHook is the sim.Hook the traced run installs on every kernel it
// hands to a machine. It splits wall time into handler time (BeforeEvent
// to AfterEvent: the component code an event runs) and kernel self time
// (AfterEvent to the next BeforeEvent: popping the queue and scheduling).
// A machine with an observatory installs its own kernel profile, which
// the hook re-creates and calls through so the run's output is unchanged.
type eventHook struct {
	inner     sim.Hook
	before    int64
	lastAfter int64 // 0 until the run's first event has finished
	handlerNs int64
	selfNs    int64
	gaps      int64
	events    int64
}

// begin readies the hook for a new run.
func (h *eventHook) begin(rec *obs.Recorder) {
	h.inner = nil
	if rec != nil {
		// Counter and Histogram return the series the machine already
		// registered, so this profile continues the machine's own.
		h.inner = obs.NewKernelProfile(rec)
	}
	h.lastAfter = 0
}

func (h *eventHook) BeforeEvent(at sim.Time) {
	now := nanotime()
	if h.lastAfter != 0 {
		h.selfNs += now - h.lastAfter
		h.gaps++
	}
	h.before = now
	if h.inner != nil {
		h.inner.BeforeEvent(at)
	}
}

func (h *eventHook) AfterEvent(at sim.Time) {
	if h.inner != nil {
		h.inner.AfterEvent(at)
	}
	now := nanotime()
	h.handlerNs += now - h.before
	h.events++
	h.lastAfter = now
}

// tracer accumulates the traced run's layer measurements.
type tracer struct {
	hook        eventHook
	machineRuns int
	events      uint64 // Kernel.Processed summed over runs
	buildNs     int64
	checkNs     int64
	encodeNs    int64
	sim         simTotals
	workerUtil  []float64
	mcStates    int // summed over every closure
	mcEdges     int
	mcUnit      int // states explored by one unit: every configuration once
	mcNs        int64
	mcConfigs   int
}

// simTotals sums the simulated statistics of machine runs.
type simTotals struct {
	refs, msgs, dataMsgs, broadcasts uint64
	hits, misses, snoops, stolen     uint64
	useless, retries                 uint64
	cycleRefs, cmdRefs, utilization  float64 // weighted by refs / by runs
	p99                              float64
	maxQueue                         int
	runs                             int
}

func (s *simTotals) add(r system.Results) {
	s.runs++
	s.refs += r.Refs
	s.msgs += r.Net.Messages.Value()
	s.dataMsgs += r.Net.DataMessages.Value()
	s.broadcasts += r.Broadcasts
	for _, st := range r.Store {
		s.hits += st.Hits.Value()
		s.misses += st.Misses.Value()
		s.snoops += st.SnoopLookups.Value()
		s.stolen += st.StolenCycles.Value()
	}
	for _, c := range r.Cache {
		s.useless += c.UselessCommands.Value()
		s.retries += c.Retries.Value()
	}
	for _, c := range r.Ctrl {
		s.maxQueue = max(s.maxQueue, c.MaxQueue)
	}
	s.cycleRefs += r.CyclesPerRef * float64(r.Refs)
	s.cmdRefs += r.CommandsPerCachePerRef * float64(r.Refs)
	s.utilization += r.CtrlUtilization
	s.p99 += float64(r.LatencyP99)
}

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// layerMetrics reports the simulated per-layer statistics.
func (s *simTotals) layerMetrics(m map[string]float64) {
	refs := float64(s.refs)
	m["network.msgs_per_ref"] = per(float64(s.msgs), refs)
	m["network.data_msgs_per_ref"] = per(float64(s.dataMsgs), refs)
	m["network.broadcasts_per_ref"] = per(float64(s.broadcasts), refs)
	m["cache.miss_ratio"] = per(float64(s.misses), float64(s.hits+s.misses))
	m["cache.snoop_lookups_per_ref"] = per(float64(s.snoops), refs)
	m["cache.stolen_cycles_per_ref"] = per(float64(s.stolen), refs)
	m["proto.useless_per_ref"] = per(float64(s.useless), refs)
	m["proto.retries_per_ref"] = per(float64(s.retries), refs)
	m["proto.ctrl_utilization"] = per(s.utilization, float64(s.runs))
	m["proto.max_queue"] = float64(s.maxQueue)
	m["system.ref_latency_p99_cycles"] = per(s.p99, float64(s.runs))
	m["sim_cycles_per_ref"] = per(s.cycleRefs, refs)
	m["cmds_per_ref"] = per(s.cmdRefs, refs)
}

// layerMetrics reports the traced run's timed-boundary measurements.
func (t *tracer) layerMetrics(m map[string]float64) {
	t.sim.layerMetrics(m)
	h := &t.hook
	runs := float64(t.machineRuns)
	m["sim.events_per_ref"] = per(float64(t.events), float64(t.sim.refs))
	m["sim.handler_ns_per_event"] = per(float64(h.handlerNs), float64(h.events))
	m["sim.self_ns_per_event"] = per(float64(h.selfNs), float64(h.gaps))
	m["system.build_ms"] = per(float64(t.buildNs)/1e6, runs)
	m["system.check_ms_per_run"] = per(float64(t.checkNs)/1e6, runs)
	m["system.encode_us_per_run"] = per(float64(t.encodeNs)/1e3, runs)
	if len(t.workerUtil) > 0 {
		m["sweep.worker_util"] = median(t.workerUtil)
	}
	m["mcheck.states"] = float64(t.mcUnit)
	m["mcheck.edges_per_state"] = per(float64(t.mcEdges), float64(t.mcStates))
	m["mcheck.ms_per_config"] = per(float64(t.mcNs)/1e6, float64(t.mcConfigs))
}
