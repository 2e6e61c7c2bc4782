package obs

import (
	"sort"

	"twobit/internal/stats"
)

// DefaultContentionK is the per-address sketch capacity CLI tools use
// unless told otherwise.
const DefaultContentionK = 64

// EnableContention turns on per-address contention profiling with
// sketch capacity k (≤ 0 selects DefaultContentionK) and returns the
// profiler. Calling it again returns the existing profiler.
func (r *Recorder) EnableContention(k int) *ContentionRecorder {
	if r == nil {
		return nil
	}
	if r.contention != nil {
		return r.contention
	}
	if k <= 0 {
		k = DefaultContentionK
	}
	r.contention = &ContentionRecorder{
		refs:  stats.NewTopK(k),
		invs:  stats.NewTopK(k),
		fsIdx: make(map[uint64]int, k),
		fsK:   k,
	}
	return r.contention
}

// Contention returns the contention profiler, or nil when it was never
// enabled — the nil profiler is the disabled instrument.
func (r *Recorder) Contention() *ContentionRecorder {
	if r == nil {
		return nil
	}
	return r.contention
}

// ContentionRecorder attributes traffic to addresses: a Space-Saving
// top-K of referenced blocks, a top-K of invalidated blocks, and a
// bounded false-sharing table that watches write interleavings within a
// block (distinct processors writing distinct words back to back — the
// signature of false sharing, which true sharing of one word never
// produces). Created by Recorder.EnableContention; the nil
// *ContentionRecorder is the disabled instrument.
type ContentionRecorder struct {
	refs *stats.TopK
	invs *stats.TopK

	fs    []fsEntry
	fsIdx map[uint64]int // block → index into fs; never iterated
	fsK   int
}

type fsEntry struct {
	block         uint64
	writes        int64
	wordMask      uint64 // bit w set: word w (mod 64) was written
	procMask      uint64 // bit p set: processor p (mod 64) wrote
	interleavings int64
	lastProc      int32
	lastWord      int32
	seen          bool
}

// Ref attributes one cache reference to block.
func (c *ContentionRecorder) Ref(block uint64) {
	if c == nil {
		return
	}
	c.refs.Observe(block)
}

// Invalidation attributes one applied invalidation to block.
func (c *ContentionRecorder) Invalidation(block uint64) {
	if c == nil {
		return
	}
	c.invs.Observe(block)
}

// Write feeds the false-sharing detector with one write by proc to the
// given word of block. Like the top-K sketches it keeps at most K
// blocks, evicting the least-written one (deterministically, by slot
// index) when a new block arrives at capacity.
func (c *ContentionRecorder) Write(block uint64, word, proc int) {
	if c == nil {
		return
	}
	var e *fsEntry
	if i, ok := c.fsIdx[block]; ok {
		e = &c.fs[i]
	} else if len(c.fs) < c.fsK {
		c.fsIdx[block] = len(c.fs)
		c.fs = append(c.fs, fsEntry{block: block})
		e = &c.fs[len(c.fs)-1]
	} else {
		min := 0
		for i := 1; i < len(c.fs); i++ {
			if c.fs[i].writes < c.fs[min].writes {
				min = i
			}
		}
		delete(c.fsIdx, c.fs[min].block)
		c.fsIdx[block] = min
		c.fs[min] = fsEntry{block: block}
		e = &c.fs[min]
	}
	e.writes++
	e.wordMask |= 1 << (uint(word) % 64)
	e.procMask |= 1 << (uint(proc) % 64)
	if e.seen && e.lastProc != int32(proc) && e.lastWord != int32(word) {
		e.interleavings++
	}
	e.lastProc, e.lastWord, e.seen = int32(proc), int32(word), true
}

// BlockStat is one hot block inside a Snapshot: Count overestimates the
// true count by at most Err (Space-Saving bound).
type BlockStat struct {
	Block uint64
	Count int64
	Err   int64
}

// FalseShareStat is one watched block's write-interleaving profile
// inside a Snapshot. A block with more than one bit in both WordMask and
// ProcMask and a nonzero Interleavings count is a false-sharing suspect.
type FalseShareStat struct {
	Block         uint64
	Writes        int64
	WordMask      uint64
	ProcMask      uint64
	Interleavings int64
}

// FalseShared reports whether the profile shows distinct processors
// interleaving writes to distinct words.
func (f FalseShareStat) FalseShared() bool {
	return f.Interleavings > 0 && popcount(f.WordMask) > 1 && popcount(f.ProcMask) > 1
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func freezeTopK(t *stats.TopK) []BlockStat {
	items := t.Items()
	if len(items) == 0 {
		return nil
	}
	out := make([]BlockStat, 0, len(items))
	for _, it := range items {
		out = append(out, BlockStat{Block: it.Key, Count: it.Count, Err: it.Err})
	}
	return out
}

func (c *ContentionRecorder) freezeFalseShare() []FalseShareStat {
	if len(c.fs) == 0 {
		return nil
	}
	out := make([]FalseShareStat, 0, len(c.fs))
	for _, e := range c.fs {
		out = append(out, FalseShareStat{
			Block:         e.block,
			Writes:        e.writes,
			WordMask:      e.wordMask,
			ProcMask:      e.procMask,
			Interleavings: e.interleavings,
		})
	}
	sortFalseShare(out)
	return out
}

func sortFalseShare(s []FalseShareStat) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Interleavings != s[j].Interleavings {
			return s[i].Interleavings > s[j].Interleavings
		}
		if s[i].Writes != s[j].Writes {
			return s[i].Writes > s[j].Writes
		}
		return s[i].Block < s[j].Block
	})
}

// mergeBlockStats union-joins two hot-block lists, summing counts and
// error bounds for shared blocks, and returns the canonical
// count-descending order. No truncation happens, so the merge is
// commutative and associative.
func mergeBlockStats(a, b []BlockStat) []BlockStat {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	byBlock := func(s []BlockStat) []BlockStat {
		c := make([]BlockStat, len(s))
		copy(c, s)
		sort.Slice(c, func(i, j int) bool { return c[i].Block < c[j].Block })
		return c
	}
	sa, sb := byBlock(a), byBlock(b)
	out := make([]BlockStat, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		switch {
		case j == len(sb) || (i < len(sa) && sa[i].Block < sb[j].Block):
			out = append(out, sa[i])
			i++
		case i == len(sa) || sb[j].Block < sa[i].Block:
			out = append(out, sb[j])
			j++
		default:
			out = append(out, BlockStat{
				Block: sa[i].Block,
				Count: sa[i].Count + sb[j].Count,
				Err:   sa[i].Err + sb[j].Err,
			})
			i++
			j++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// mergeFalseShare union-joins two false-sharing tables: writes and
// interleavings add, word/proc masks union. Cross-run interleavings are
// not invented — each run's last-writer state dies with the run.
func mergeFalseShare(a, b []FalseShareStat) []FalseShareStat {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	byBlock := func(s []FalseShareStat) []FalseShareStat {
		c := make([]FalseShareStat, len(s))
		copy(c, s)
		sort.Slice(c, func(i, j int) bool { return c[i].Block < c[j].Block })
		return c
	}
	sa, sb := byBlock(a), byBlock(b)
	out := make([]FalseShareStat, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		switch {
		case j == len(sb) || (i < len(sa) && sa[i].Block < sb[j].Block):
			out = append(out, sa[i])
			i++
		case i == len(sa) || sb[j].Block < sa[i].Block:
			out = append(out, sb[j])
			j++
		default:
			out = append(out, FalseShareStat{
				Block:         sa[i].Block,
				Writes:        sa[i].Writes + sb[j].Writes,
				WordMask:      sa[i].WordMask | sb[j].WordMask,
				ProcMask:      sa[i].ProcMask | sb[j].ProcMask,
				Interleavings: sa[i].Interleavings + sb[j].Interleavings,
			})
			i++
			j++
		}
	}
	sortFalseShare(out)
	return out
}
