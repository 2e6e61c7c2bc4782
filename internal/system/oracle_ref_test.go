package system

import (
	"fmt"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/rng"
)

// mapOracle is the hash-map Oracle the dense tables replaced, kept
// verbatim (bar the names) as the reference TestOracleMatchesMapOracle
// compares against.
type mapOracle struct {
	seq      uint64
	seqs     map[blockVersion]uint64 // (block, version) → commit sequence
	latest   map[addr.Block]uint64
	lastSeen map[procBlock]uint64 // per (proc, block): last observed commit seq
}

type blockVersion struct {
	block   addr.Block
	version uint64
}

type procBlock struct {
	proc  int
	block addr.Block
}

func newMapOracle() *mapOracle {
	return &mapOracle{
		seqs:     make(map[blockVersion]uint64),
		latest:   make(map[addr.Block]uint64),
		lastSeen: make(map[procBlock]uint64),
	}
}

func (o *mapOracle) Reset() {
	o.seq = 0
	clear(o.seqs)
	clear(o.latest)
	clear(o.lastSeen)
}

func (o *mapOracle) Commit(b addr.Block, v uint64) {
	o.seq++
	k := blockVersion{b, v}
	if _, dup := o.seqs[k]; dup {
		panic(fmt.Sprintf("oracle: version %d committed twice for %v", v, b))
	}
	o.seqs[k] = o.seq
	o.latest[b] = v
}

func (o *mapOracle) Latest(b addr.Block) uint64 { return o.latest[b] }

func (o *mapOracle) Commits() uint64 { return o.seq }

func (o *mapOracle) seqOf(b addr.Block, v uint64) (uint64, bool) {
	if v == 0 {
		return 0, true
	}
	s, ok := o.seqs[blockVersion{b, v}]
	return s, ok
}

func (o *mapOracle) NoteWrite(proc int, b addr.Block, v uint64) error {
	s, ok := o.seqOf(b, v)
	if !ok {
		return fmt.Errorf("oracle: proc %d's store of version %d to %v completed without committing", proc, v, b)
	}
	key := procBlock{proc, b}
	if s > o.lastSeen[key] {
		o.lastSeen[key] = s
	}
	return nil
}

func (o *mapOracle) CheckLoad(proc int, b addr.Block, issueLatest, got uint64, strict bool) error {
	gs, ok := o.seqOf(b, got)
	if !ok {
		return fmt.Errorf("oracle: load of %v observed uncommitted version %d", b, got)
	}
	key := procBlock{proc, b}
	if prev := o.lastSeen[key]; gs < prev {
		return fmt.Errorf("oracle: coherence violation on %v: proc %d observed version %d (commit #%d) after already observing commit #%d",
			b, proc, got, gs, prev)
	}
	o.lastSeen[key] = gs
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

// TestOracleMatchesMapOracle drives the dense Oracle and the map-based
// reference with the same random Commit, NoteWrite, CheckLoad and Reset
// sequences, numbering versions from one counter as the machine does,
// and requires the same errors and the same Latest values throughout.
// Each run after a Reset commits more versions and touches more blocks
// than the run before, so the tables regrow past the capacity the Reset
// kept: a regrowth that exposed a previous run's entries would show up
// as a committed version the reference calls uncommitted.
func TestOracleMatchesMapOracle(t *testing.T) {
	r := rng.New(0x0AC1E, 12)
	dense := &Oracle{}
	ref := newMapOracle()
	for run := 0; run < 40; run++ {
		blocks := 4 + run*3
		observers := 1 + r.Intn(5)
		dense.Reset(blocks, observers)
		ref.Reset()
		var next uint64     // the machine's version counter
		var issued []uint64 // versions handed out, committed or not
		versionOf := func() uint64 {
			// A committed, issued-but-uncommitted, never-issued or
			// initial version, for any block.
			switch {
			case len(issued) > 0 && r.Intn(4) > 0:
				return issued[r.Intn(len(issued))]
			case r.Intn(2) == 0:
				return 0
			}
			return next + 1 + uint64(r.Intn(3))
		}
		ops := 50 + run*40
		for i := 0; i < ops; i++ {
			b := addr.Block(r.Intn(blocks))
			proc := r.Intn(observers)
			var got, want error
			switch op := r.Intn(10); {
			case op < 3:
				// Issue a version, commit an issued one: commits arrive
				// out of version order, as they do on a real machine.
				next++
				issued = append(issued, next)
				j := len(issued) - 1 - r.Intn(min(len(issued), 3))
				v := issued[j]
				if committedAnywhere(ref, v) {
					continue
				}
				dense.Commit(b, v)
				ref.Commit(b, v)
			case op < 5:
				v := versionOf()
				got, want = dense.NoteWrite(proc, b, v), ref.NoteWrite(proc, b, v)
			default:
				issueLatest := ref.Latest(b)
				if r.Intn(3) == 0 {
					issueLatest = versionOf()
				}
				g, strict := versionOf(), r.Intn(2) == 0
				got = dense.CheckLoad(proc, b, issueLatest, g, strict)
				want = ref.CheckLoad(proc, b, issueLatest, g, strict)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("run %d op %d: error %v, reference %v", run, i, got, want)
			}
			if dense.Commits() != ref.Commits() {
				t.Fatalf("run %d op %d: %d commits, reference %d", run, i, dense.Commits(), ref.Commits())
			}
			for blk := 0; blk < blocks; blk++ {
				if g, w := dense.Latest(addr.Block(blk)), ref.Latest(addr.Block(blk)); g != w {
					t.Fatalf("run %d op %d: Latest(%d) = %d, reference %d", run, i, blk, g, w)
				}
			}
		}
	}
}

// committedAnywhere reports whether the reference has committed version v
// for any block; the dense oracle requires versions unique across blocks.
func committedAnywhere(o *mapOracle, v uint64) bool {
	for k := range o.seqs {
		if k.version == v {
			return true
		}
	}
	return false
}

// TestOracleCommitTwiceAcrossBlocksPanics pins the dense table's
// contract: a version belongs to one block.
func TestOracleCommitTwiceAcrossBlocksPanics(t *testing.T) {
	o := NewOracle(4, 1)
	o.Commit(1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("committing one version for two blocks did not panic")
		}
	}()
	o.Commit(2, 7)
}
