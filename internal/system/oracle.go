package system

import (
	"fmt"
	"math"

	"twobit/internal/addr"
)

// Oracle checks the paper's coherence definition — "a read access to any
// block always returns the most recently written value of that block" —
// at two strictness levels.
//
// The base check is *coherence*: every store produces a globally unique
// version, the protocols call Commit at the instant a store's value
// becomes the block's current value (so commits define a per-block total
// write order), every load must observe a committed version, and each
// processor must observe a block's versions in non-decreasing commit
// order — never an older value after a newer one, and never older than
// its own last write. This is precisely what the 1984 protocol
// guarantees.
//
// The strict check adds *linearizability*: a load must observe the version
// that was current at its issue, or one committed later. The protocol
// attains this only when invalidations and grants arrive in step — the
// controller sends MGRANTED as soon as the BROADINV broadcast leaves, so
// under a network with variable per-message delay (the Omega model) a
// remote cache may briefly read its stale copy after the writer proceeded.
// The machine therefore enables the strict check only on uniform-latency
// networks (crossbar, bus). See DESIGN.md §6.
//
// The tables are dense slices (DESIGN.md §4g). Versions are numbered by
// one machine-wide counter, so the commit table is indexed by version.
// Per-block records are rows allocated when a block is first written: a
// block never written can only be read at version 0, which needs no
// record, and a serving trace writes a small share of its blocks.
// Commit sequence numbers are 32-bit: the commit table holds an entry per
// version, so a run would exhaust memory long before 2³² commits.
type Oracle struct {
	seq     uint32
	stride  int      // observers per row: processors plus DMA devices
	commits []commit // by version; the zero entry means "not committed"
	rowOf   []int32  // by block: 1 + the block's row, 0 if never written
	latest  []uint64 // by row: the block's last committed version
	// lastSeen[row*stride+observer] is the last commit sequence number
	// the observer saw of the row's block. One flat slice, so adding a
	// row is one amortized append.
	lastSeen []uint32
}

// commit records which block a version was committed for, by row.
type commit struct {
	row int32  // 1 + the block's row
	seq uint32 // commit sequence number, from 1; 0 if not committed
}

// NewOracle returns an empty oracle over blocks blocks, observed by
// observers processors and devices. Version 0 denotes a block's initial
// memory contents and is implicitly committed with sequence 0.
func NewOracle(blocks, observers int) *Oracle {
	o := &Oracle{}
	o.Reset(blocks, observers)
	return o
}

// Reset empties the oracle for a new run over blocks blocks and
// observers observers, keeping its tables' capacity, so a worker reusing
// one oracle across a campaign stops paying per-run growth. A Reset
// oracle is indistinguishable from a fresh one.
func (o *Oracle) Reset(blocks, observers int) {
	o.seq = 0
	o.stride = observers
	o.commits = o.commits[:0]
	o.rowOf = extend(o.rowOf[:0], blocks)
	o.latest = o.latest[:0]
	o.lastSeen = o.lastSeen[:0]
}

// extend lengthens s by n zero elements. It clears what it exposes, since
// capacity kept across a Reset still holds the previous run's entries.
// It doubles the capacity when it must grow: these tables grow throughout
// a run, and append's 1.25× steps for large slices would allocate
// about twice as many bytes in total.
func extend[T any](s []T, n int) []T {
	l := len(s)
	if l+n > cap(s) {
		grown := make([]T, l, max(2*cap(s), l+n))
		copy(grown, s)
		s = grown
	}
	s = s[:l+n]
	clear(s[l:])
	return s
}

// Commit records that version v became current for block b. Versions
// are unique across blocks; committing one twice panics.
func (o *Oracle) Commit(b addr.Block, v uint64) {
	if o.seq == math.MaxUint32 {
		panic("oracle: commit sequence exhausted")
	}
	o.seq++
	if v >= uint64(len(o.commits)) {
		o.commits = extend(o.commits, int(v)+1-len(o.commits))
	}
	if o.commits[v].seq != 0 {
		panic(fmt.Sprintf("oracle: version %d committed twice (again for %v)", v, b))
	}
	r := o.rowOf[b]
	if r == 0 {
		o.latest = extend(o.latest, 1)
		o.lastSeen = extend(o.lastSeen, o.stride)
		r = int32(len(o.latest))
		o.rowOf[b] = r
	}
	o.commits[v] = commit{row: r, seq: o.seq}
	o.latest[r-1] = v
}

// Latest returns the last committed version for b (0 if never written).
func (o *Oracle) Latest(b addr.Block) uint64 {
	if r := o.rowOf[b]; r != 0 {
		return o.latest[r-1]
	}
	return 0
}

// Commits returns the total number of commits observed.
func (o *Oracle) Commits() uint64 { return uint64(o.seq) }

func (o *Oracle) seqOf(b addr.Block, v uint64) (uint32, bool) {
	if v == 0 {
		return 0, true
	}
	if v < uint64(len(o.commits)) {
		if c := o.commits[v]; c.seq != 0 && c.row == o.rowOf[b] {
			return c.seq, true
		}
	}
	return 0, false
}

// seen returns the index in lastSeen of proc's entry for block b, or -1
// when b has never been written (every observation of it is version 0).
func (o *Oracle) seen(proc int, b addr.Block) int {
	if proc < 0 || proc >= o.stride {
		panic(fmt.Sprintf("oracle: observer %d outside [0,%d)", proc, o.stride))
	}
	r := o.rowOf[b]
	if r == 0 {
		return -1
	}
	return int(r-1)*o.stride + proc
}

// NoteWrite records, at a store's completion, that proc has observed its
// own write (subsequent loads must not see anything older).
func (o *Oracle) NoteWrite(proc int, b addr.Block, v uint64) error {
	s, ok := o.seqOf(b, v)
	if !ok {
		return fmt.Errorf("oracle: proc %d's store of version %d to %v completed without committing", proc, v, b)
	}
	if i := o.seen(proc, b); i >= 0 && s > o.lastSeen[i] {
		o.lastSeen[i] = s
	}
	return nil
}

// CheckLoad validates a completed load of block b by proc that observed
// version got. issueLatest is Latest(b) snapshotted at issue; it is
// consulted only when strict is true.
func (o *Oracle) CheckLoad(proc int, b addr.Block, issueLatest, got uint64, strict bool) error {
	gs, ok := o.seqOf(b, got)
	if !ok {
		return fmt.Errorf("oracle: load of %v observed uncommitted version %d", b, got)
	}
	if i := o.seen(proc, b); i >= 0 {
		if prev := o.lastSeen[i]; gs < prev {
			return fmt.Errorf("oracle: coherence violation on %v: proc %d observed version %d (commit #%d) after already observing commit #%d",
				b, proc, got, gs, prev)
		}
		o.lastSeen[i] = gs
	}
	if strict {
		is, ok := o.seqOf(b, issueLatest)
		if !ok {
			return fmt.Errorf("oracle: internal error: issue version %d unknown for %v", issueLatest, b)
		}
		if gs < is {
			return fmt.Errorf("oracle: stale load of %v: observed version %d (commit #%d) but version %d (commit #%d) was already current at issue",
				b, got, gs, issueLatest, is)
		}
	}
	return nil
}
