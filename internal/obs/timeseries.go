package obs

import (
	"fmt"
	"sort"
)

// SeriesKind says how a windowed time-series folds samples into a window
// and how two runs' windows merge (see mergeSeries).
type SeriesKind uint8

const (
	// SeriesSum accumulates counts per window (misses, messages);
	// windows add across runs.
	SeriesSum SeriesKind = iota
	// SeriesMax keeps the peak observation per window (queue depth);
	// windows max across runs.
	SeriesMax
	// SeriesGauge tracks a running level (directory-state census):
	// each window holds the level at that window's end, gap windows are
	// forward-filled, and windows add across runs (the merged series is
	// the fleet-wide total level).
	SeriesGauge
)

// String names the kind for renderers and wire encodings.
func (k SeriesKind) String() string {
	switch k {
	case SeriesSum:
		return "sum"
	case SeriesMax:
		return "max"
	case SeriesGauge:
		return "gauge"
	}
	return fmt.Sprintf("SeriesKind(%d)", uint8(k))
}

// DefaultWindowWidth is the window width (sim cycles) CLI tools use
// unless told otherwise.
const DefaultWindowWidth = 1 << 10

// DirStateSeriesNames names the directory-state census gauges, indexed
// by the two-bit directory.State ordinal. They are machine-global: every
// directory controller moves its blocks between them on each transition,
// the exact directories (full map, duplicate tags) through the same
// two-bit abstraction, so the census is comparable across protocols.
var DirStateSeriesNames = [4]string{"dir/absent", "dir/present1", "dir/present_star", "dir/present_m"}

// DirStateCounterSuffix names the per-controller transition counters
// ("ctrl<j>/dir_to_*") and DirStateEventNames the trace instant of each
// transition, indexed by the destination state like DirStateSeriesNames.
// The slugs avoid "Present*", which is hostile to metric-name tooling.
var (
	DirStateCounterSuffix = [4]string{"dir_to_absent", "dir_to_present1", "dir_to_present_star", "dir_to_present_m"}
	DirStateEventNames    = [4]string{"dir to Absent", "dir to Present1", "dir to Present*", "dir to PresentM"}
)

// EnableWindows turns on windowed time-series aggregation with the
// given window width in sim cycles (≤ 0 selects DefaultWindowWidth) and
// returns the recorder. Calling it again returns the existing recorder
// (the width argument is then ignored), so every layer of one machine
// folds into the same windows.
func (r *Recorder) EnableWindows(width uint64) *TSRecorder {
	if r == nil {
		return nil
	}
	if r.windows != nil {
		return r.windows
	}
	if width == 0 {
		width = DefaultWindowWidth
	}
	r.windows = &TSRecorder{r: r, width: width, idx: make(map[string]int)}
	return r.windows
}

// Windows returns the time-series recorder, or nil when windows were
// never enabled — which is itself the disabled instrument, so
// components fetch series unconditionally:
//
//	msgs := cfg.Obs.Windows().Series("net/msgs", obs.SeriesSum)
func (r *Recorder) Windows() *TSRecorder {
	if r == nil {
		return nil
	}
	return r.windows
}

// TSRecorder aggregates fixed-width sim-time windows for a set of named
// series. It is created by Recorder.EnableWindows and shares the
// recorder's clock; like every obs instrument it is passive (it only
// writes its own state, deriving the window index from the clock) and
// the nil *TSRecorder is the disabled instrument.
type TSRecorder struct {
	r      *Recorder
	width  uint64
	series []*TimeSeries
	idx    map[string]int // lookup only; never iterated
}

// Width returns the window width in sim cycles.
func (ts *TSRecorder) Width() uint64 {
	if ts == nil {
		return 0
	}
	return ts.width
}

// Series registers (or looks up) a named windowed series. Registration
// is idempotent so several components can fold into one machine-wide
// series; re-registering with a different kind panics — it is always a
// wiring bug, and merging such windows would be meaningless.
func (ts *TSRecorder) Series(name string, kind SeriesKind) *TimeSeries {
	if ts == nil {
		return nil
	}
	if i, ok := ts.idx[name]; ok {
		s := ts.series[i]
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %q registered as %v, re-requested as %v", name, s.kind, kind))
		}
		return s
	}
	s := &TimeSeries{ts: ts, name: name, kind: kind}
	ts.idx[name] = len(ts.series)
	ts.series = append(ts.series, s)
	return s
}

// TimeSeries is one windowed series. The nil *TimeSeries is the
// disabled instrument: Add, Observe and GaugeAdd on it are free.
type TimeSeries struct {
	ts     *TSRecorder
	name   string
	kind   SeriesKind
	values []uint64
	cur    int64 // running level (gauge only)
}

// Name returns the series' registered name.
func (t *TimeSeries) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// window returns the index of the window covering the current sim time.
func (t *TimeSeries) window() int {
	return int(uint64(t.ts.r.now()) / t.ts.width)
}

// extendTo grows the series through window w. Sum and max windows start
// at zero; gauge windows are forward-filled with the running level.
func (t *TimeSeries) extendTo(w int) {
	fill := uint64(0)
	if t.kind == SeriesGauge {
		fill = clampLevel(t.cur)
	}
	for len(t.values) <= w {
		t.values = append(t.values, fill)
	}
}

// Add folds n into the current window of a SeriesSum series.
func (t *TimeSeries) Add(n uint64) {
	if t == nil {
		return
	}
	w := t.window()
	t.extendTo(w)
	t.values[w] += n
}

// Inc adds one to the current window of a SeriesSum series.
func (t *TimeSeries) Inc() { t.Add(1) }

// Observe records v into the current window of a SeriesMax series,
// keeping the per-window peak.
func (t *TimeSeries) Observe(v uint64) {
	if t == nil {
		return
	}
	w := t.window()
	t.extendTo(w)
	if v > t.values[w] {
		t.values[w] = v
	}
}

// GaugeAdd moves a SeriesGauge series' running level by delta and
// records the new level in the current window.
func (t *TimeSeries) GaugeAdd(delta int64) {
	if t == nil {
		return
	}
	w := t.window()
	t.extendTo(w)
	t.cur += delta
	t.values[w] = clampLevel(t.cur)
}

func clampLevel(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// SeriesValue is a windowed series' frozen state inside a Snapshot.
// Values[i] covers sim time [i*Width, (i+1)*Width); trailing zeros are
// trimmed (a window beyond len(Values) reads as zero).
type SeriesValue struct {
	Name   string
	Kind   SeriesKind
	Width  uint64
	Values []uint64
}

// Total returns the sum over all windows (for SeriesSum series this is
// the whole-run count, which the exactness tests pin against the
// simulator's aggregate stats).
func (s SeriesValue) Total() uint64 {
	var n uint64
	for _, v := range s.Values {
		n += v
	}
	return n
}

// freezeSeries renders the recorder's windowed series name-sorted and
// canonical: gauges are forward-filled through the window covering the
// recorder's current time (so a merged gauge reads as the fleet-wide
// level while each run is live, and zero after it ends), and trailing
// zeros are trimmed.
func (ts *TSRecorder) freezeSeries() []SeriesValue {
	if ts == nil {
		return nil
	}
	now := int(uint64(ts.r.now()) / ts.width)
	out := make([]SeriesValue, 0, len(ts.series))
	for _, t := range ts.series {
		if t.kind == SeriesGauge {
			t.extendTo(now)
		}
		sv := SeriesValue{Name: t.name, Kind: t.kind, Width: ts.width}
		trim := len(t.values)
		for trim > 0 && t.values[trim-1] == 0 {
			trim--
		}
		if trim > 0 {
			sv.Values = make([]uint64, trim)
			copy(sv.Values, t.values[:trim])
		}
		out = append(out, sv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mergeSeries combines two name-sorted series lists: same-name series
// merge elementwise by kind (sum and gauge add, max keeps the peak) with
// missing windows reading as zero, series on one side carry over.
// Same-name series must agree on kind and width, else merging is an
// error for the same reason mismatched histogram widths are.
func mergeSeries(a, b []SeriesValue) ([]SeriesValue, error) {
	var out []SeriesValue
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Name < b[j].Name):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].Name < a[i].Name:
			out = append(out, b[j])
			j++
		default:
			m, err := mergeOneSeries(a[i], b[j])
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			i++
			j++
		}
	}
	return out, nil
}

func mergeOneSeries(a, b SeriesValue) (SeriesValue, error) {
	if a.Kind != b.Kind {
		return SeriesValue{}, fmt.Errorf("obs: cannot merge series %q: kinds differ (%v vs %v)",
			a.Name, a.Kind, b.Kind)
	}
	if a.Width != b.Width {
		return SeriesValue{}, fmt.Errorf("obs: cannot merge series %q: window widths differ (%d vs %d)",
			a.Name, a.Width, b.Width)
	}
	out := SeriesValue{Name: a.Name, Kind: a.Kind, Width: a.Width}
	n := len(a.Values)
	if len(b.Values) > n {
		n = len(b.Values)
	}
	if n > 0 {
		out.Values = make([]uint64, n)
		copy(out.Values, a.Values)
		for k, v := range b.Values {
			if a.Kind == SeriesMax {
				if v > out.Values[k] {
					out.Values[k] = v
				}
			} else {
				out.Values[k] += v
			}
		}
	}
	return out, nil
}

// Storm is one flagged window from DetectStorms.
type Storm struct {
	Window int    // index into SeriesValue.Values
	Value  uint64 // the window's count
}

// DetectStorms flags the windows of a series whose count is at least
// factor times the series mean and at least minCount absolute — the
// invalidation-storm detector when run over a "sys/invalidations"
// series. It is a pure post-processing pass over a frozen snapshot, so
// detection can never perturb a run.
func DetectStorms(s SeriesValue, minCount uint64, factor float64) []Storm {
	if len(s.Values) == 0 {
		return nil
	}
	mean := float64(s.Total()) / float64(len(s.Values))
	thresh := mean * factor
	var out []Storm
	for i, v := range s.Values {
		if float64(v) >= thresh && v >= minCount && v > 0 {
			out = append(out, Storm{Window: i, Value: v})
		}
	}
	return out
}
