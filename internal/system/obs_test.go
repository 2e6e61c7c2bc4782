package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"twobit/internal/obs"
)

// directoryProtocols are the protocols built on the shared
// directory-controller skeleton, which emits every ctrl<j>/* instrument.
var directoryProtocols = []Protocol{TwoBit, FullMap, Duplication}

// obsConfig is the default 4-processor configuration for protocol, on
// the single memory module Tang's central controller requires.
func obsConfig(protocol Protocol) Config {
	cfg := DefaultConfig(protocol, 4)
	if protocol == Duplication {
		cfg.Modules = 1
	}
	return cfg
}

// runObs runs the standard seeded sharing workload with a recorder
// attached and returns the machine, its results, and the recorder.
func runObs(t *testing.T, protocol Protocol, ring int) (*Machine, Results, *obs.Recorder) {
	t.Helper()
	rec := obs.New(ring)
	cfg := obsConfig(protocol)
	cfg.Obs = rec
	m, err := New(cfg, sharingGen(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	return m, res, rec
}

// TestObsExactness cross-checks every observability series against the
// simulator's own counters: the instrument must agree exactly with the
// measurements the machine already makes, not approximately.
func TestObsExactness(t *testing.T) {
	for _, protocol := range directoryProtocols {
		t.Run(protocol.String(), func(t *testing.T) { testObsExactness(t, protocol) })
	}
}

func testObsExactness(t *testing.T, protocol Protocol) {
	m, res, rec := runObs(t, protocol, 1<<16)
	snap := rec.Snapshot()
	if res.Obs == nil {
		t.Fatal("Results.Obs is nil despite Config.Obs")
	}

	mustCounter := func(name string) uint64 {
		t.Helper()
		v, ok := snap.Counter(name)
		if !ok {
			t.Fatalf("counter %q missing; have %d counters", name, len(snap.Counters))
		}
		return v
	}
	mustHist := func(name string) obs.HistogramValue {
		t.Helper()
		h, ok := snap.Hist(name)
		if !ok {
			t.Fatalf("histogram %q missing", name)
		}
		return h
	}

	if got, want := mustCounter("net/sends"), res.Net.Messages.Value(); got != want {
		t.Errorf("net/sends = %d, Net.Messages = %d", got, want)
	}
	fanout := mustHist("net/broadcast_fanout")
	if fanout.Count != res.Net.Broadcasts.Value() {
		t.Errorf("broadcast_fanout count = %d, Net.Broadcasts = %d", fanout.Count, res.Net.Broadcasts.Value())
	}
	if fanout.Sum != res.Net.BroadcastCopies.Value() {
		t.Errorf("broadcast_fanout sum = %d, Net.BroadcastCopies = %d", fanout.Sum, res.Net.BroadcastCopies.Value())
	}

	if got, want := mustCounter("kernel/events"), m.Kernel().Processed(); got != want {
		t.Errorf("kernel/events = %d, Kernel.Processed = %d", got, want)
	}

	var refs uint64
	for k := range res.Cache {
		refs += mustCounter(fmt.Sprintf("cache%d/refs", k))
	}
	if refs != res.Refs {
		t.Errorf("Σ cache refs = %d, Results.Refs = %d", refs, res.Refs)
	}

	var broadcasts, busy, txnSum uint64
	for j := range res.Ctrl {
		broadcasts += mustCounter(fmt.Sprintf("ctrl%d/broadcasts", j))
		busy += res.Ctrl[j].BusyCycles.Value()
		txnSum += mustHist(fmt.Sprintf("ctrl%d/txn_cycles", j)).Sum
	}
	if broadcasts != res.Broadcasts {
		t.Errorf("Σ ctrl broadcasts = %d, Results.Broadcasts = %d", broadcasts, res.Broadcasts)
	}
	if txnSum != busy {
		t.Errorf("Σ txn_cycles sums = %d, Σ BusyCycles = %d", txnSum, busy)
	}

	lat := mustHist("sys/ref_latency_cycles")
	if lat.Count != res.Refs {
		t.Errorf("ref_latency count = %d, Refs = %d", lat.Count, res.Refs)
	}
	if math.Abs(lat.Mean()-res.LatencyMean) > 1e-9 {
		t.Errorf("ref_latency mean = %v, LatencyMean = %v", lat.Mean(), res.LatencyMean)
	}

	// Directory transition counters: the directory's (projected) two-bit
	// state must have moved (the workload shares blocks), and every
	// transition was counted somewhere.
	var transitions uint64
	for j := range res.Ctrl {
		for _, suffix := range obs.DirStateCounterSuffix {
			transitions += mustCounter(fmt.Sprintf("ctrl%d/%s", j, suffix))
		}
	}
	if transitions == 0 {
		t.Error("no directory transitions recorded on a sharing workload")
	}
}

// TestObsDoesNotPerturb is the passivity proof: the same configuration
// run with and without a recorder produces byte-identical results (once
// the snapshot itself is stripped). Recording may observe the run; it
// must not steer it.
func TestObsDoesNotPerturb(t *testing.T) {
	for _, protocol := range directoryProtocols {
		t.Run(protocol.String(), func(t *testing.T) { testObsDoesNotPerturb(t, protocol) })
	}
}

func testObsDoesNotPerturb(t *testing.T, protocol Protocol) {
	run := func(withObs bool) []byte {
		cfg := obsConfig(protocol)
		if withObs {
			cfg.Obs = obs.New(1 << 12)
		}
		m, err := New(cfg, sharingGen(4, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(500)
		if err != nil {
			t.Fatal(err)
		}
		res.Obs = nil
		enc, err := res.EncodeStable()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if off, on := run(false), run(true); !bytes.Equal(off, on) {
		t.Errorf("recording perturbed the run:\n  off %s\n  on  %s", off, on)
	}
}

// TestObsDeterministic pins that two identical instrumented runs produce
// identical snapshots and identical event streams.
func TestObsDeterministic(t *testing.T) {
	_, _, rec1 := runObs(t, TwoBit, 1<<12)
	_, _, rec2 := runObs(t, TwoBit, 1<<12)
	s1, _ := json.Marshal(rec1.Snapshot())
	s2, _ := json.Marshal(rec2.Snapshot())
	if !bytes.Equal(s1, s2) {
		t.Errorf("snapshots differ between identical runs:\n%s\n%s", s1, s2)
	}
	e1, e2 := rec1.Events(), rec2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// TestObsResultsRoundTripWithSnapshot extends the codec round-trip to an
// instrumented run: the snapshot survives encode/decode byte-stably.
func TestObsResultsRoundTripWithSnapshot(t *testing.T) {
	_, res, _ := runObs(t, TwoBit, 0)
	enc, err := res.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResults(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Obs == nil {
		t.Fatal("snapshot lost in round trip")
	}
	enc2, err := back.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("instrumented encoding not byte-stable:\n%s\n%s", enc, enc2)
	}
}
