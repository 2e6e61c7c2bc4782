package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"twobit/internal/obs"
	"twobit/internal/workload"
)

// runWindowed runs the standard seeded sharing workload with the full
// coherence observatory on: windowed time-series plus per-block
// contention attribution.
func runWindowed(t *testing.T, protocol Protocol, width uint64) (Results, *obs.Recorder) {
	t.Helper()
	rec := obs.New(0)
	rec.EnableWindows(width)
	rec.EnableContention(32)
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
	return res, rec
}

// censusAt reads a gauge series at window w: beyond the trimmed tail the
// level was zero, so the window reads as zero.
func censusAt(sv obs.SeriesValue, w int) uint64 {
	if w < len(sv.Values) {
		return sv.Values[w]
	}
	return 0
}

// TestTimeSeriesExactness pins the windowed series against the
// simulator's aggregate counters: windows partition the run — their sums
// must equal the whole-run statistics exactly — and the directory-state
// census must conserve the block population in every window.
func TestTimeSeriesExactness(t *testing.T) {
	for _, protocol := range directoryProtocols {
		t.Run(protocol.String(), func(t *testing.T) {
			res, _ := runWindowed(t, protocol, 64)
			if res.Obs == nil {
				t.Fatal("Results.Obs is nil despite Config.Obs")
			}
			snap := *res.Obs

			mustSeries := func(name string) obs.SeriesValue {
				t.Helper()
				sv, ok := snap.SeriesNamed(name)
				if !ok {
					t.Fatalf("series %q missing; have %d series", name, len(snap.Series))
				}
				return sv
			}

			var misses, invs, upgrades uint64
			for _, st := range res.Store {
				misses += st.Misses.Value()
			}
			for _, cs := range res.Cache {
				invs += cs.InvalidationsApplied.Value()
				upgrades += cs.MRequestsSent.Value()
			}
			for _, c := range []struct {
				series string
				want   uint64
			}{
				{"sys/refs", res.Refs},
				{"sys/misses", misses},
				{"sys/invalidations", invs},
				{"sys/upgrades", upgrades},
				{"net/msgs", res.Net.Messages.Value()},
			} {
				if got := mustSeries(c.series).Total(); got != c.want {
					t.Errorf("Σ %s windows = %d, aggregate stats say %d", c.series, got, c.want)
				}
			}

			// Census conservation: at every window, the four state gauges
			// sum to the same block population — transitions move blocks
			// between states, never create or destroy them.
			census := make([]obs.SeriesValue, len(obs.DirStateSeriesNames))
			windows := 0
			for i, name := range obs.DirStateSeriesNames {
				census[i] = mustSeries(name)
				if len(census[i].Values) > windows {
					windows = len(census[i].Values)
				}
			}
			if windows == 0 {
				t.Fatal("census series are all empty")
			}
			var population uint64
			for w := 0; w < windows; w++ {
				var sum uint64
				for _, sv := range census {
					sum += censusAt(sv, w)
				}
				if w == 0 {
					population = sum
				} else if sum != population {
					t.Fatalf("window %d: census sums to %d blocks, window 0 had %d", w, sum, population)
				}
			}
			if present := mustSeries("dir/present1").Total() + mustSeries("dir/present_star").Total() + mustSeries("dir/present_m").Total(); present == 0 {
				t.Error("census never left absent on a sharing workload")
			}
		})
	}
}

// TestTimeSeriesDoesNotPerturb extends the passivity proof to the
// observatory: a run with windows and contention profiling enabled
// produces byte-identical results to the uninstrumented run (once the
// snapshot itself is stripped).
func TestTimeSeriesDoesNotPerturb(t *testing.T) {
	run := func(withObs bool) []byte {
		cfg := DefaultConfig(TwoBit, 4)
		if withObs {
			cfg.Obs = obs.New(0)
			cfg.Obs.EnableWindows(64)
			cfg.Obs.EnableContention(32)
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
		t.Errorf("windowed recording perturbed the run:\n  off %s\n  on  %s", off, on)
	}
}

// TestTimeSeriesDeterministic pins that two identical windowed runs
// snapshot identically, contention tables included.
func TestTimeSeriesDeterministic(t *testing.T) {
	_, rec1 := runWindowed(t, TwoBit, 64)
	_, rec2 := runWindowed(t, TwoBit, 64)
	s1, _ := json.Marshal(rec1.Snapshot())
	s2, _ := json.Marshal(rec2.Snapshot())
	if !bytes.Equal(s1, s2) {
		t.Errorf("windowed snapshots differ between identical runs:\n%s\n%s", s1, s2)
	}
}

// TestWindowedResultsRoundTrip extends the codec round-trip to a
// windowed run: series and contention tables survive encode/decode
// byte-stably.
func TestWindowedResultsRoundTrip(t *testing.T) {
	res, _ := runWindowed(t, TwoBit, 64)
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
	if len(back.Obs.Series) == 0 || len(back.Obs.TopBlocks) == 0 {
		t.Fatalf("observatory lost in round trip: %d series, %d top blocks",
			len(back.Obs.Series), len(back.Obs.TopBlocks))
	}
	enc2, err := back.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("windowed encoding not byte-stable:\n%s\n%s", enc, enc2)
	}
}

// TestContentionAttributesSharedTraffic checks the profiler's ranking
// on a contended workload: with most traffic landing on a 4-block
// shared pool, those planted hot blocks must dominate the top of the
// reference sketch's ranking.
func TestContentionAttributesSharedTraffic(t *testing.T) {
	rec := obs.New(0)
	rec.EnableWindows(64)
	rec.EnableContention(32)
	cfg := DefaultConfig(TwoBit, 4)
	cfg.Obs = rec
	m, err := New(cfg, workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 4, SharedBlocks: 4, Q: 0.6, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 24, ColdBlocks: 128, Seed: 7,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Obs.TopBlocks
	if len(top) == 0 {
		t.Fatal("no top blocks recorded")
	}
	for i, b := range top[:4] {
		if b.Block >= 4 {
			t.Errorf("rank %d is block %d, want one of the 4 planted hot blocks: %+v", i, b.Block, top[:4])
		}
	}
	if _, ok := res.Obs.SeriesNamed("sys/invalidations"); !ok {
		t.Fatal("no invalidation series for storm detection")
	}
}
