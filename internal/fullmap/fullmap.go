// Package fullmap implements the baseline the paper compares against: the
// full distributed map of Censier & Feautrier (§2.4.2), in which each
// memory block carries an n+1-bit tag — one presence bit per cache plus a
// modified bit. Because the directory knows exactly which caches hold
// copies, every coherence command is directed (PURGE, INV); no broadcasts
// are ever needed.
//
// With Config.LocalExclusive the controller additionally grants the Yen–Fu
// local state (§2.4.3): a read miss on an uncached block returns the copy
// exclusively, and the cache may later modify it without consulting the
// global table. The directory pessimistically marks such blocks modified,
// so a future miss always queries the (possibly still clean) owner — the
// standard resolution of the synchronization problems [10] leaves open.
package fullmap

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// Config configures one full-map memory controller.
type Config struct {
	Module int
	Topo   proto.Topology
	Space  addr.Space
	Lat    proto.Latencies
	Mode   proto.ConcurrencyMode
	// LocalExclusive enables the Yen–Fu §2.4.3 extension.
	LocalExclusive bool
	// Commit is the oracle hook for writes that linearize at the
	// controller (uncached I/O); may be nil.
	Commit proto.CommitFunc
	// Obs is the observability recorder (nil costs nothing); its census
	// sees the exact map through the two-bit projection.
	Obs *obs.Recorder
}

// Controller is a Censier–Feautrier-style memory controller: the shared
// directory-controller skeleton around the full-map policy.
type Controller struct {
	proto.DirController
	cfg Config
	dir *directory.FullMap
}

// New constructs the controller and wires it to the network.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	c := &Controller{cfg: cfg}
	c.Init(cfg.skeleton(), kernel, net, mem, c)
	c.dir = directory.NewFullMap(cfg.Space.BlocksInModule(cfg.Module), cfg.Topo.Caches)
	return c
}

func (cfg Config) skeleton() proto.DirConfig {
	return proto.DirConfig{
		Module: cfg.Module, Topo: cfg.Topo, Space: cfg.Space, Mode: cfg.Mode,
		Service: cfg.Lat.CtrlService, Obs: cfg.Obs,
	}
}

// Reset restores the controller to its freshly-constructed state under
// cfg (see proto.DirController.Reset), keeping the directory storage.
func (c *Controller) Reset(cfg Config) {
	c.DirController.Reset(cfg.skeleton())
	c.cfg = cfg
	c.dir.Reset()
}

// State derives the two-bit abstraction of block b's exact state.
func (c *Controller) State(b addr.Block) directory.State { return c.dir.GlobalState(c.Local(b)) }

// Holders returns the exact holder set of block b, for invariants.
func (c *Controller) Holders(b addr.Block) []int { return c.dir.Holders(c.Local(b)) }

// Modified reports the m bit of block b, for invariants.
func (c *Controller) Modified(b addr.Block) bool { return c.dir.Modified(c.Local(b)) }

// BlockSnapshot returns the observable controller state for block b.
func (c *Controller) BlockSnapshot(b addr.Block) proto.BlockSnapshot {
	s := c.DirController.BlockSnapshot(b)
	s.Modified = c.Modified(b)
	for _, h := range c.Holders(b) {
		s.Holders |= 1 << uint(h)
	}
	return s
}

// DMARead services an uncached I/O read with exact knowledge: a modified
// block is purged from its owner (who keeps a clean copy); otherwise
// memory is current.
func (c *Controller) DMARead(p proto.Pending) {
	a := p.M.Block
	li := c.Local(a)
	reply := func(data uint64) {
		c.Send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: data})
	}
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.Purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Mem.Write(a, data)
				pre := c.Before(a)
				c.dir.SetModified(li, false)
				c.Moved(a, pre)
				reply(data)
				c.Done(a)
			})
		})
		return
	}
	c.Kernel.After(c.cfg.Lat.Memory, func() {
		reply(c.Mem.Read(a))
		c.Done(a)
	})
}

// DMAWrite services an uncached I/O write of a whole block: the owner (if
// modified) is drained and discarded, every holder is invalidated by a
// directed INV, and the write linearizes at the memory update.
func (c *Controller) DMAWrite(p proto.Pending) {
	a := p.M.Block
	li := c.Local(a)
	version := p.M.Data
	finish := func() {
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Mem.Write(a, version)
			if c.cfg.Commit != nil {
				c.cfg.Commit(a, version)
			}
			c.Send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: version})
			pre := c.Before(a)
			c.dir.Clear(li)
			c.Moved(a, pre)
			c.Done(a)
		})
	}
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.Purge(a, msg.Write, owner, func(int, uint64) { finish() })
		return
	}
	c.invalidateHolders(a, -1)
	finish()
}

// modifiedOwner returns the single holder of a modified block.
func (c *Controller) modifiedOwner(a addr.Block) int {
	h := c.dir.Holders(c.Local(a))
	if len(h) != 1 {
		panic(fmt.Sprintf("fullmap: modified %v has %d holders", a, len(h)))
	}
	return h[0]
}

// ReadMiss services REQUEST(k,a,"read") with exact knowledge.
func (c *Controller) ReadMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	li := c.Local(a)
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.Purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.SendGet(k, a, data, false)
				pre := c.Before(a)
				c.dir.SetModified(li, false)
				// The previous owner's presence bit is already accurate:
				// either it answered the PURGE and kept a clean copy (bit
				// stays set), or the data arrived via a racing eviction and
				// the put-consumption path cleared the bit.
				c.dir.SetPresent(li, k, true)
				c.Moved(a, pre)
				c.Done(a)
			})
		})
		return
	}
	exclusive := c.cfg.LocalExclusive && c.dir.HolderCount(li) == 0
	c.Kernel.After(c.cfg.Lat.Memory, func() {
		c.Sp.Mark(k, obs.PhaseMemory)
		data := c.Mem.Read(a)
		c.SendGet(k, a, data, exclusive)
		pre := c.Before(a)
		c.dir.SetPresent(li, k, true)
		if exclusive {
			// Pessimistic m bit: the owner may modify silently (§2.4.3).
			c.dir.SetModified(li, true)
		}
		c.Moved(a, pre)
		c.Done(a)
	})
}

// WriteMiss services REQUEST(k,a,"write") with exact knowledge.
func (c *Controller) WriteMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if c.dir.Modified(c.Local(a)) {
		owner := c.modifiedOwner(a)
		c.Purge(a, msg.Write, owner, func(_ int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.fillModified(k, a, data)
			})
		})
		return
	}
	// Directed invalidations to the exact holders (no broadcast, ever).
	c.invalidateHolders(a, k)
	c.Kernel.After(c.cfg.Lat.Memory, func() {
		c.Sp.Mark(k, obs.PhaseMemory)
		c.fillModified(k, a, c.Mem.Read(a))
	})
}

// fillModified completes a write miss: k gets the data and becomes a's
// sole, modifying holder.
func (c *Controller) fillModified(k int, a addr.Block, data uint64) {
	c.SendGet(k, a, data, false)
	li := c.Local(a)
	pre := c.Before(a)
	c.dir.Clear(li)
	c.dir.SetPresent(li, k, true)
	c.dir.SetModified(li, true)
	c.Moved(a, pre)
	c.Done(a)
}

// MRequest services the §3.2.4 equivalent. The exact map makes the grant
// decision trivially safe: the presence bit for k is cleared the moment an
// INV is sent, so "bit set" means no invalidation can be in flight.
func (c *Controller) MRequest(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	li := c.Local(a)
	if !c.dir.Present(li, k) || c.dir.Modified(li) {
		c.Deny(k, a)
		c.Done(a)
		return
	}
	c.invalidateHolders(a, k)
	c.Grant(k, a, true)
	pre := c.Before(a)
	c.dir.SetModified(li, true)
	c.Moved(a, pre)
	c.Done(a)
}

// Eject services §3.2.1 with exact bookkeeping.
func (c *Controller) Eject(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if p.M.RW == msg.Read {
		c.ejected(a, k)
		c.Done(a)
		return
	}
	c.Await(a, func(_ int, data uint64) {
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Mem.Write(a, data)
			c.ejected(a, k)
			c.Done(a)
		})
	})
}

// ejected clears cache k's presence bit for block a once its EJECT is
// serviced. A clean ejection by a Yen–Fu exclusive owner leaves the
// pessimistic m bit dangling; it clears when no holders remain.
func (c *Controller) ejected(a addr.Block, k int) {
	li := c.Local(a)
	pre := c.Before(a)
	c.dir.SetPresent(li, k, false)
	if c.dir.HolderCount(li) == 0 {
		c.dir.SetModified(li, false)
	}
	c.Moved(a, pre)
}

// Evicted clears cache k's presence bit for block a (Policy.Evicted): k's
// eviction write-back answered the active transaction, so its copy is
// gone. The m bit stays for the transaction to settle.
func (c *Controller) Evicted(a addr.Block, k int) {
	li := c.Local(a)
	pre := c.Before(a)
	c.dir.SetPresent(li, k, false)
	c.Moved(a, pre)
}

// invalidateHolders sends directed INVs to every holder except k, clearing
// their presence bits, and deletes their queued MREQUESTs (§3.2.5 applies
// to the full map too).
func (c *Controller) invalidateHolders(a addr.Block, k int) {
	li := c.Local(a)
	pre := c.Before(a)
	for _, h := range c.dir.Holders(li) {
		if h != k {
			c.Directed(h, msg.Message{Kind: msg.KindInv, Block: a, Cache: h})
			c.dir.SetPresent(li, h, false)
		}
	}
	c.Moved(a, pre)
	c.DeleteRacingMRequests(a, k)
}
