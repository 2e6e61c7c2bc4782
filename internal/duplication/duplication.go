// Package duplication implements Tang's scheme (§2.4.1): a single central
// memory controller keeps a duplicate copy of every cache's directory and
// consults all of them to determine a block's global state. Knowledge is
// exact, so all commands are directed like the full map's; the cost is the
// centralization the paper criticizes — one controller serves every block,
// and (per the published design's simplicity assumptions) it services one
// command at a time, which is modeled by forcing the single-command
// serializer. The system layer additionally requires Modules == 1.
package duplication

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

// Config configures the central controller.
type Config struct {
	Topo  proto.Topology
	Space addr.Space
	Lat   proto.Latencies
	// Obs is the observability recorder (nil costs nothing); its census
	// sees the duplicate tags through the two-bit projection.
	Obs *obs.Recorder
}

// Controller is the central duplicate-directory controller: the shared
// directory-controller skeleton around the duplicate-tag policy.
type Controller struct {
	proto.DirController
	cfg Config
	dup *directory.DupTagStore
}

// New wires the controller (as module 0's controller node) to the network.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	if cfg.Topo.Modules != 1 {
		panic("duplication: the central controller requires exactly one module")
	}
	c := &Controller{cfg: cfg}
	c.Init(cfg.skeleton(), kernel, net, mem, c)
	c.dup = directory.NewDupTagStore(cfg.Topo.Caches, cfg.Space.Blocks)
	return c
}

// skeleton derives the skeleton's configuration. The published design
// services one command at a time (SingleCommand), and every duplicated
// directory must be searched: each command costs the base service time
// plus one interval per eight cache directories — the "large amount of
// processing power" the paper notes the scheme needs.
func (cfg Config) skeleton() proto.DirConfig {
	return proto.DirConfig{
		Topo: cfg.Topo, Space: cfg.Space, Mode: proto.SingleCommand,
		Service: cfg.Lat.CtrlService * sim.Time(1+cfg.Topo.Caches/8),
		Obs:     cfg.Obs,
	}
}

// Reset restores the controller to its freshly-constructed state under
// cfg (see proto.DirController.Reset), keeping the duplicate-tag storage.
func (c *Controller) Reset(cfg Config) {
	c.DirController.Reset(cfg.skeleton())
	c.cfg = cfg
	c.dup.Reset()
}

// State derives the two-bit abstraction for invariants.
func (c *Controller) State(b addr.Block) directory.State { return c.dup.GlobalState(b) }

// Holders returns the exact holder set, for invariants.
func (c *Controller) Holders(b addr.Block) []int { return c.dup.Holders(b) }

// Holds reports whether cache k holds block b, for invariants.
func (c *Controller) Holds(k int, b addr.Block) bool { return c.dup.Holds(k, b) }

// ModifiedBy returns the modifying cache or -1, for invariants.
func (c *Controller) ModifiedBy(b addr.Block) int { return c.dup.ModifiedBy(b) }

// ReadMiss services REQUEST(k,a,"read") from the duplicate tags.
func (c *Controller) ReadMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if owner := c.dup.ModifiedBy(a); owner >= 0 {
		c.Purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.fillShared(k, a, data)
			})
		})
		return
	}
	c.Kernel.After(c.cfg.Lat.Memory, func() {
		c.Sp.Mark(k, obs.PhaseMemory)
		c.fillShared(k, a, c.Mem.Read(a))
	})
}

// fillShared completes a read miss: k gets the data and joins a's
// holders, and no cache holds a modified any more.
func (c *Controller) fillShared(k int, a addr.Block, data uint64) {
	c.SendGet(k, a, data, false)
	pre := c.Before(a)
	c.dup.NoteClean(a)
	c.dup.NoteFill(k, a)
	c.Moved(a, pre)
	c.Done(a)
}

// WriteMiss services REQUEST(k,a,"write") from the duplicate tags.
func (c *Controller) WriteMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if owner := c.dup.ModifiedBy(a); owner >= 0 {
		c.Purge(a, msg.Write, owner, func(_ int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.evict(a, owner)
				c.fillModified(k, a, data)
			})
		})
		return
	}
	c.invalidateHolders(a, k)
	c.Kernel.After(c.cfg.Lat.Memory, func() {
		c.Sp.Mark(k, obs.PhaseMemory)
		c.fillModified(k, a, c.Mem.Read(a))
	})
}

// fillModified completes a write miss: k gets the data and becomes a's
// modifying owner.
func (c *Controller) fillModified(k int, a addr.Block, data uint64) {
	c.SendGet(k, a, data, false)
	c.modify(k, a)
	c.Done(a)
}

// MRequest grants cache k's MREQUEST when the tags show it a holder and
// no cache modifying the block.
func (c *Controller) MRequest(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if !c.dup.Holds(k, a) || c.dup.ModifiedBy(a) >= 0 {
		c.Deny(k, a)
		c.Done(a)
		return
	}
	c.invalidateHolders(a, k)
	c.Grant(k, a, true)
	c.modify(k, a)
	c.Done(a)
}

// Eject drops the ejecting cache's tag, after its write-back if dirty.
func (c *Controller) Eject(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if p.M.RW == msg.Read {
		c.evict(a, k)
		c.Done(a)
		return
	}
	c.Await(a, func(_ int, data uint64) {
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Mem.Write(a, data)
			c.evict(a, k)
			c.Done(a)
		})
	})
}

// DMARead and DMAWrite refuse uncached I/O, which the published design
// does not have; system.Config validation refuses DMA devices for it.
func (c *Controller) DMARead(p proto.Pending) {
	panic(fmt.Sprintf("duplication: cannot service %v", p.M))
}
func (c *Controller) DMAWrite(p proto.Pending) {
	panic(fmt.Sprintf("duplication: cannot service %v", p.M))
}

// Evicted implements proto.Policy: k's racing write-back means its copy
// is gone.
func (c *Controller) Evicted(a addr.Block, k int) { c.evict(a, k) }

// evict drops cache k's duplicate tag for block a.
func (c *Controller) evict(a addr.Block, k int) {
	pre := c.Before(a)
	c.dup.NoteEvict(k, a)
	c.Moved(a, pre)
}

// modify records cache k as block a's modifying owner.
func (c *Controller) modify(k int, a addr.Block) {
	pre := c.Before(a)
	c.dup.NoteModify(k, a)
	c.Moved(a, pre)
}

func (c *Controller) invalidateHolders(a addr.Block, k int) {
	for _, h := range c.dup.Holders(a) {
		if h != k {
			c.Directed(h, msg.Message{Kind: msg.KindInv, Block: a, Cache: h})
			c.evict(a, h)
		}
	}
	c.DeleteRacingMRequests(a, k)
}
