package system

import (
	"cmp"
	"fmt"
	"slices"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/fullmap"
)

// copyView is one cache's valid copy of a block, for invariant checks.
type copyView struct {
	cacheIdx int
	frame    cache.Frame
}

// copyCursor hands out every valid cached copy block by block. The
// checkers walk blocks in ascending order, so the copies are gathered
// once per check — one pass over each cache's frames, sorted by block and
// then by cache — instead of one lookup per block per cache. The walk
// still visits every block, not only those with copies or a directory
// entry: an uncached, Absent block still owes memory holding its latest
// committed version, and its checks are a few dense reads.
type copyCursor []copyView

// copies gathers every valid copy across the caches into the machine's
// scratch buffer, reused across runs, and returns a cursor at its start.
func (m *Machine) copies() copyCursor {
	n := 0
	for _, cs := range m.caches {
		n += len(cs.Store().Frames())
	}
	out := slices.Grow(m.copyScratch[:0], n)
	for k, cs := range m.caches {
		for _, f := range cs.Store().Frames() {
			if f.Valid {
				out = append(out, copyView{cacheIdx: k, frame: f})
			}
		}
	}
	slices.SortFunc(out, func(a, b copyView) int {
		if c := cmp.Compare(a.frame.Block, b.frame.Block); c != 0 {
			return c
		}
		return cmp.Compare(a.cacheIdx, b.cacheIdx)
	})
	m.copyScratch = out
	return out
}

// next returns the copies of block b, ascending by cache, and advances
// past them. Successive calls must name ascending blocks. Empty results
// are nil.
func (c *copyCursor) next(b addr.Block) []copyView {
	s := *c
	for len(s) > 0 && s[0].frame.Block < b {
		s = s[1:]
	}
	n := 0
	for n < len(s) && s[n].frame.Block == b {
		n++
	}
	*c = s[n:]
	if n == 0 {
		return nil
	}
	return s[:n]
}

// checkDataInvariants verifies the protocol-independent coherence facts at
// quiescence: at most one modified copy; a modified copy is the only copy
// and holds the latest committed version; with no modified copy, memory
// holds the latest committed version and every clean copy matches memory.
func (m *Machine) checkDataInvariants(b addr.Block, copies []copyView, memVersion uint64) error {
	modified := 0
	var firstMod copyView
	for _, cv := range copies {
		if cv.frame.Modified {
			if modified == 0 {
				firstMod = cv
			}
			modified++
		}
	}
	if modified > 1 {
		return fmt.Errorf("%v: %d modified copies", b, modified)
	}
	if modified == 1 {
		if len(copies) != 1 {
			return fmt.Errorf("%v: modified copy in cache %d coexists with %d other copies",
				b, firstMod.cacheIdx, len(copies)-1)
		}
		if m.oracle != nil && firstMod.frame.Data != m.oracle.Latest(b) {
			return fmt.Errorf("%v: modified copy holds version %d, latest committed is %d",
				b, firstMod.frame.Data, m.oracle.Latest(b))
		}
		return nil
	}
	if m.oracle != nil && memVersion != m.oracle.Latest(b) {
		return fmt.Errorf("%v: memory holds version %d, latest committed is %d",
			b, memVersion, m.oracle.Latest(b))
	}
	for _, cv := range copies {
		if cv.frame.Data != memVersion {
			return fmt.Errorf("%v: clean copy in cache %d holds version %d, memory holds %d",
				b, cv.cacheIdx, cv.frame.Data, memVersion)
		}
	}
	return nil
}

// moduleCtrl is a memory controller that owns one module's blocks.
type moduleCtrl interface {
	Quiescent() bool
	MemVersion(b addr.Block) uint64
}

// checkCtrlInvariants requires every controller to be quiescent, then
// runs the protocol-independent checks with memory read back through
// each block's own controller, and extra against that controller.
func checkCtrlInvariants[C moduleCtrl](m *Machine, ctrls []C, extra func(c C, b addr.Block, copies []copyView) error) error {
	for j, c := range ctrls {
		if !c.Quiescent() {
			return fmt.Errorf("controller %d not quiescent", j)
		}
	}
	ctrlOf := func(b addr.Block) C { return ctrls[b.Module(m.space.Modules)] }
	return checkGenericInvariants(m, func(b addr.Block) uint64 { return ctrlOf(b).MemVersion(b) },
		func(b addr.Block, copies []copyView) error { return extra(ctrlOf(b), b, copies) })
}

// checkTwoBitState verifies a two-bit global state against the caches'
// actual contents. Present* may legitimately overcount (it means "0 or
// more copies"); every other state is exact.
func checkTwoBitState(ctrl *core.Controller, b addr.Block, copies []copyView) error {
	st := ctrl.State(b)
	modified := 0
	for _, cv := range copies {
		if cv.frame.Modified {
			modified++
		}
	}
	switch st {
	case directory.Absent:
		if len(copies) != 0 {
			return fmt.Errorf("%v: state Absent but %d copies exist", b, len(copies))
		}
	case directory.Present1:
		if len(copies) > 1 || modified != 0 {
			return fmt.Errorf("%v: state Present1 but %d copies (%d modified)", b, len(copies), modified)
		}
	case directory.PresentStar:
		if modified != 0 {
			return fmt.Errorf("%v: state Present* but a modified copy exists", b)
		}
	case directory.PresentM:
		if len(copies) != 1 || modified != 1 {
			return fmt.Errorf("%v: state PresentM but %d copies (%d modified)", b, len(copies), modified)
		}
	}
	if modified == 1 && st != directory.PresentM {
		return fmt.Errorf("%v: modified copy exists but state is %v", b, st)
	}
	if len(copies) >= 2 && st != directory.PresentStar {
		return fmt.Errorf("%v: %d copies but state is %v", b, len(copies), st)
	}
	return nil
}

// checkFullMapState verifies the exact n+1-bit map against the caches.
// Extra presence bits can only exist when clean ejects are disabled.
func (m *Machine) checkFullMapState(ctrl *fullmap.Controller, b addr.Block, copies []copyView) error {
	holders := ctrl.Holders(b)
	// Every copy must be a known holder (exactness of the map).
	for _, cv := range copies {
		if !slices.Contains(holders, cv.cacheIdx) {
			return fmt.Errorf("%v: cache %d holds a copy the map does not record", b, cv.cacheIdx)
		}
	}
	if !m.cfg.DisableCleanEject && len(holders) != len(copies) {
		return fmt.Errorf("%v: map records %d holders but %d copies exist", b, len(holders), len(copies))
	}
	if ctrl.Modified(b) {
		if len(holders) != 1 {
			return fmt.Errorf("%v: m bit set with %d holders", b, len(holders))
		}
		// With the Yen–Fu extension the m bit is pessimistic: the sole
		// holder may hold the block Exclusive (clean). Otherwise the
		// copy must be modified.
		if len(copies) == 1 {
			f := copies[0].frame
			if !f.Modified && !f.Exclusive {
				return fmt.Errorf("%v: m bit set but the copy is plainly clean", b)
			}
		}
	}
	return nil
}

// checkGenericInvariants runs the protocol-independent checks, using
// memVersion to read back main memory and extra for any per-block
// protocol rule. checkCtrlInvariants builds on it for the per-module
// controllers (two-bit, full map, classical, duplication); write-once and
// software, which have no such controllers, call it directly.
func checkGenericInvariants(m *Machine, memVersion func(addr.Block) uint64, extra func(b addr.Block, copies []copyView) error) error {
	cur := m.copies()
	for blk := 0; blk < m.space.Blocks; blk++ {
		b := addr.Block(blk)
		copies := cur.next(b)
		if err := m.checkDataInvariants(b, copies, memVersion(b)); err != nil {
			return err
		}
		if extra != nil {
			if err := extra(b, copies); err != nil {
				return err
			}
		}
	}
	return nil
}
