package system

import (
	"bytes"
	"fmt"
	"testing"

	"twobit/internal/obs"
)

// runSpans runs the standard seeded sharing workload with transaction
// spans enabled and returns the results and recorder.
func runSpans(t *testing.T, proto Protocol) (Results, *obs.Recorder) {
	t.Helper()
	rec := obs.New(0)
	rec.EnableSpans(0)
	cfg := obsConfig(proto)
	cfg.Obs = rec
	m, err := New(cfg, sharingGen(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestSpanExactness is the attribution proof: phase accounting
// telescopes, so for every reference class the summed per-phase
// durations must equal the summed end-to-end latencies — and across all
// classes, span latencies must reproduce sys/ref_latency_cycles
// exactly, reference for reference and cycle for cycle.
func TestSpanExactness(t *testing.T) {
	for _, proto := range directoryProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			res, rec := runSpans(t, proto)
			snap := rec.Snapshot()
			matrix, ok := obs.SpanMatrixFrom(snap)
			if !ok {
				t.Fatal("snapshot carries no span series")
			}

			var totalRefs, totalCycles uint64
			for _, cl := range matrix.Classes {
				var phaseSum uint64
				for _, ph := range cl.Phases {
					phaseSum += ph.Hist.Sum
				}
				if phaseSum != cl.E2E.Sum {
					t.Errorf("%s: Σ phase durations = %d, e2e sum = %d", cl.Class, phaseSum, cl.E2E.Sum)
				}
				totalRefs += cl.E2E.Count
				totalCycles += cl.E2E.Sum
			}

			lat, ok := snap.Hist("sys/ref_latency_cycles")
			if !ok {
				t.Fatal("sys/ref_latency_cycles missing")
			}
			if totalRefs != lat.Count {
				t.Errorf("Σ class refs = %d, sys/ref_latency count = %d", totalRefs, lat.Count)
			}
			if totalCycles != lat.Sum {
				t.Errorf("Σ class e2e cycles = %d, sys/ref_latency sum = %d", totalCycles, lat.Sum)
			}
			if totalRefs != res.Refs {
				t.Errorf("Σ class refs = %d, Results.Refs = %d", totalRefs, res.Refs)
			}
		})
	}
}

// TestSpanClassCoverage pins that the sharing workload exercises every
// reference class, so the exactness test above is not vacuous for any
// row of the matrix. (write_upgrade needs a write hit on an unmodified
// shared block — the §3.2.4 MREQUEST path.)
func TestSpanClassCoverage(t *testing.T) {
	_, rec := runSpans(t, TwoBit)
	matrix, _ := obs.SpanMatrixFrom(rec.Snapshot())
	for _, cl := range matrix.Classes {
		if cl.E2E.Count == 0 {
			t.Errorf("class %s: no references recorded on the sharing workload", cl.Class)
		}
	}
}

// TestSpanPhaseDecomposition spot-checks the attribution against the
// configured latencies: an uncontended read miss on an Absent block
// costs exactly req_transit + queue-and-service + memory + data_return
// + fill, so the class means must reconcile with Latencies when every
// phase's count matches the class count.
func TestSpanPhaseDecomposition(t *testing.T) {
	_, rec := runSpans(t, TwoBit)
	matrix, _ := obs.SpanMatrixFrom(rec.Snapshot())
	for _, cl := range matrix.Classes {
		if cl.E2E.Count == 0 {
			continue
		}
		for _, ph := range cl.Phases {
			if ph.Hist.Count > cl.E2E.Count {
				t.Errorf("%s/%s: phase count %d exceeds class count %d",
					cl.Class, ph.Phase, ph.Hist.Count, cl.E2E.Count)
			}
		}
		// Hits are pure cache work: exactly one phase, exactly the
		// cache-hit latency per reference.
		if cl.Class == "read_hit" || cl.Class == "write_hit" {
			for _, ph := range cl.Phases {
				if ph.Phase != "cache" && ph.Hist.Count != 0 {
					t.Errorf("%s: unexpected %s phase (count %d)", cl.Class, ph.Phase, ph.Hist.Count)
				}
			}
			lat := DefaultConfig(TwoBit, 4).Lat
			if want := uint64(lat.CacheHit) * cl.E2E.Count; cl.E2E.Sum != want {
				t.Errorf("%s: e2e sum = %d, want %d (%d refs × CacheHit %d)",
					cl.Class, cl.E2E.Sum, want, cl.E2E.Count, lat.CacheHit)
			}
		}
	}
}

// TestSpansDoNotPerturb extends the obs passivity proof to spans: a run
// with span recording produces byte-identical results (snapshot
// stripped) to an uninstrumented run, and the Results wire encoding of
// an uninstrumented run is untouched by this feature existing at all.
func TestSpansDoNotPerturb(t *testing.T) {
	run := func(withSpans bool) []byte {
		cfg := DefaultConfig(TwoBit, 4)
		if withSpans {
			cfg.Obs = obs.New(0)
			cfg.Obs.EnableSpans(1 << 12) // retention on: the heavier mode
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
		t.Errorf("span recording perturbed the run:\n  off %s\n  on  %s", off, on)
	}
}

// TestSpanResultsAccessor pins the Results-level API: an instrumented
// run exposes the matrix, an uninstrumented one reports ok=false.
func TestSpanResultsAccessor(t *testing.T) {
	res, _ := runSpans(t, TwoBit)
	matrix, ok := res.SpanMatrix()
	if !ok {
		t.Fatal("SpanMatrix() not ok on a spans-enabled run")
	}
	if matrix.Refs() != res.Refs {
		t.Errorf("matrix refs = %d, Results.Refs = %d", matrix.Refs(), res.Refs)
	}

	cfg := DefaultConfig(TwoBit, 4)
	cfg.Obs = obs.New(0) // recorder without spans
	m, err := New(cfg, sharingGen(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.SpanMatrix(); ok {
		t.Error("SpanMatrix() ok on a run without spans enabled")
	}
}

// TestSpanTraceRetention pins the trace-mode bookkeeping: retained
// spans tile their end-to-end interval with their segments, and the
// deterministic drop-newest policy accounts for every reference.
func TestSpanTraceRetention(t *testing.T) {
	rec := obs.New(0)
	sp := rec.EnableSpans(64)
	cfg := DefaultConfig(TwoBit, 4)
	cfg.Obs = rec
	m, err := New(cfg, sharingGen(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp.Finished()); got != 64 {
		t.Fatalf("retained %d spans, want the 64-span cap", got)
	}
	if got, want := uint64(64)+sp.Truncated(), res.Refs; got != want {
		t.Errorf("retained + truncated = %d, Refs = %d", got, want)
	}
	for _, s := range sp.Finished() {
		if len(s.Segs) == 0 {
			t.Fatalf("txn %d: no segments", s.Txn)
		}
		at := s.Start
		for _, seg := range s.Segs {
			if seg.From != at {
				t.Fatalf("txn %d: segment gap at %d (segment starts %d)", s.Txn, at, seg.From)
			}
			if seg.To < seg.From {
				t.Fatalf("txn %d: segment runs backwards (%d → %d)", s.Txn, seg.From, seg.To)
			}
			at = seg.To
		}
		if at != s.End {
			t.Fatalf("txn %d: segments end at %d, span ends at %d", s.Txn, at, s.End)
		}
	}
}

// TestSpanSnapshotRoundTrip pins that the span series survive the
// Results wire codec byte-stably like every other snapshot series.
func TestSpanSnapshotRoundTrip(t *testing.T) {
	res, _ := runSpans(t, TwoBit)
	enc, err := res.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResults(enc)
	if err != nil {
		t.Fatal(err)
	}
	m1, ok1 := res.SpanMatrix()
	m2, ok2 := back.SpanMatrix()
	if !ok1 || !ok2 {
		t.Fatal("matrix lost in round trip")
	}
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Error("matrix changed across encode/decode")
	}
	enc2, err := back.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("span-bearing encoding not byte-stable")
	}
}
