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
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// Config configures the central controller.
type Config struct {
	Topo  proto.Topology
	Space addr.Space
	Lat   proto.Latencies
}

// Controller is the central duplicate-directory controller.
type Controller struct {
	cfg    Config
	kernel *sim.Kernel
	net    network.Network
	mem    *memory.Module
	dup    *directory.DupTagStore
	ser    *proto.Serializer
	stats  proto.CtrlStats

	// txns holds each block's open transaction: its start (for occupancy
	// accounting), the data continuation it is parked on, and puts that
	// arrived before it started.
	txns *proto.Txns
}

// New wires the controller (as module 0's controller node) to the network.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	if cfg.Topo.Modules != 1 {
		panic("duplication: the central controller requires exactly one module")
	}
	c := &Controller{
		cfg:    cfg,
		kernel: kernel,
		net:    net,
		mem:    mem,
		dup:    directory.NewDupTagStore(cfg.Topo.Caches, cfg.Space.Blocks),
		txns:   proto.NewTxns(cfg.Space, 0),
	}
	// The published design services one command at a time: SingleCommand.
	c.ser = proto.NewSerializer(proto.SingleCommand, cfg.Space, 0, c.begin)
	net.Attach(c.node(), c)
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg, keeping the network attachment (Topo and Space must match
// construction) and the duplicate-tag/serializer backing storage.
func (c *Controller) Reset(cfg Config) {
	if cfg.Topo != c.cfg.Topo || cfg.Space != c.cfg.Space {
		panic("duplication: Reset shape differs from construction")
	}
	c.cfg = cfg
	c.dup.Reset()
	c.ser.Reset(proto.SingleCommand)
	c.stats = proto.CtrlStats{}
	c.txns.Reset()
}

// CtrlStats implements proto.MemSide.
func (c *Controller) CtrlStats() *proto.CtrlStats { return &c.stats }

// State derives the two-bit abstraction for invariants.
func (c *Controller) State(b addr.Block) directory.State { return c.dup.GlobalState(b) }

// Holders returns the exact holder set, for invariants.
func (c *Controller) Holders(b addr.Block) []int { return c.dup.Holders(b) }

// Holds reports whether cache k holds block b, for invariants.
func (c *Controller) Holds(k int, b addr.Block) bool { return c.dup.Holds(k, b) }

// ModifiedBy returns the modifying cache or -1, for invariants.
func (c *Controller) ModifiedBy(b addr.Block) int { return c.dup.ModifiedBy(b) }

// MemVersion returns memory's version of b, for invariants.
func (c *Controller) MemVersion(b addr.Block) uint64 { return c.mem.Read(b) }

// Quiescent reports whether no transaction is active or queued.
func (c *Controller) Quiescent() bool {
	return c.ser.ActiveCount() == 0 && c.ser.QueuedLen() == 0 && !c.txns.Parked()
}

func (c *Controller) node() network.NodeID                   { return c.cfg.Topo.CtrlNode(0) }
func (c *Controller) send(dst network.NodeID, m msg.Message) { c.net.Send(c.node(), dst, m) }

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest, msg.KindEject, msg.KindMRequest:
		c.ser.Submit(proto.Pending{Src: src, M: m})
		c.stats.NoteQueue(c.ser.QueuedLen())
	case msg.KindPut:
		c.handlePut(m)
	case msg.KindMAck:
		// Grants from exact duplicate tags are provably safe; the shared
		// cache agent's confirmation carries no news.
	default:
		panic(fmt.Sprintf("duplication: unexpected %v", m))
	}
}

func (c *Controller) handlePut(m msg.Message) {
	if onData := c.txns.TakeData(m.Block); onData != nil {
		removed := c.ser.DeleteQueued(m.Block, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == m.Cache
		})
		if removed > 0 {
			c.dup.NoteEvict(m.Cache, m.Block)
		}
		onData(m.Cache, m.Data)
		return
	}
	c.txns.Stash(m.Block, m.Cache, m.Data)
}

func (c *Controller) begin(p proto.Pending) {
	c.txns.Begin(p.M.Block, c.kernel.Now(), p.M)
	// The duplicated directories must all be searched; charge one service
	// interval per cache directory plus the base service time. This is the
	// "large amount of processing power" the paper notes the scheme needs.
	searchTime := c.cfg.Lat.CtrlService * sim.Time(1+c.cfg.Topo.Caches/8)
	c.kernel.After(searchTime, func() { c.service(p) })
}

func (c *Controller) service(p proto.Pending) {
	switch p.M.Kind {
	case msg.KindRequest:
		c.stats.Requests.Inc()
		if p.M.RW == msg.Read {
			c.readMiss(p)
		} else {
			c.writeMiss(p)
		}
	case msg.KindMRequest:
		c.mrequest(p)
	case msg.KindEject:
		c.eject(p)
	default:
		panic(fmt.Sprintf("duplication: cannot service %v", p.M))
	}
}

func (c *Controller) sendGet(k int, a addr.Block, data uint64) {
	c.send(c.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindGet, Block: a, Cache: k, Data: data})
}

func (c *Controller) readMiss(p proto.Pending) {
	c.stats.ReadMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	if owner := c.dup.ModifiedBy(a); owner >= 0 {
		c.purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.mem.Write(a, data)
				c.sendGet(k, a, data)
				c.dup.NoteClean(a)
				c.dup.NoteFill(k, a)
				c.done(a)
			})
		})
		return
	}
	c.kernel.After(c.cfg.Lat.Memory, func() {
		c.sendGet(k, a, c.mem.Read(a))
		c.dup.NoteFill(k, a)
		c.done(a)
	})
}

func (c *Controller) writeMiss(p proto.Pending) {
	c.stats.WriteMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	finish := func(data uint64) {
		c.sendGet(k, a, data)
		c.dup.NoteModify(k, a)
		c.done(a)
	}
	if owner := c.dup.ModifiedBy(a); owner >= 0 {
		c.purge(a, msg.Write, owner, func(_ int, data uint64) {
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.mem.Write(a, data)
				c.dup.NoteEvict(owner, a)
				finish(data)
			})
		})
		return
	}
	c.invalidateHolders(a, k)
	c.kernel.After(c.cfg.Lat.Memory, func() {
		finish(c.mem.Read(a))
	})
}

func (c *Controller) mrequest(p proto.Pending) {
	c.stats.MRequests.Inc()
	k, a := p.M.Cache, p.M.Block
	if !c.dup.Holds(k, a) || c.dup.ModifiedBy(a) >= 0 {
		c.stats.MGrantDenied.Inc()
		c.send(c.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindMGranted, Block: a, Cache: k, Ok: false})
		c.done(a)
		return
	}
	c.invalidateHolders(a, k)
	c.send(c.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindMGranted, Block: a, Cache: k, Ok: true})
	c.dup.NoteModify(k, a)
	c.done(a)
}

func (c *Controller) eject(p proto.Pending) {
	c.stats.Ejects.Inc()
	k, a := p.M.Cache, p.M.Block
	if p.M.RW == msg.Read {
		c.dup.NoteEvict(k, a)
		c.done(a)
		return
	}
	c.await(a, func(_ int, data uint64) {
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.mem.Write(a, data)
			c.dup.NoteEvict(k, a)
			c.done(a)
		})
	})
}

func (c *Controller) invalidateHolders(a addr.Block, k int) {
	for _, h := range c.dup.Holders(a) {
		if h == k {
			continue
		}
		c.stats.DirectedSends.Inc()
		c.send(c.cfg.Topo.CacheNode(h), msg.Message{Kind: msg.KindInv, Block: a, Cache: h})
		c.dup.NoteEvict(h, a)
	}
	if n := c.ser.DeleteQueued(a, func(p proto.Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != k
	}); n > 0 {
		c.stats.DeletedMRequests.Add(uint64(n))
	}
}

func (c *Controller) purge(a addr.Block, rw msg.RW, owner int, onData func(int, uint64)) {
	if put, ok := c.txns.PopStash(a); ok {
		c.ser.DeleteQueued(a, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == put.Cache
		})
		c.dup.NoteEvict(put.Cache, a)
		c.kernel.After(0, func() { onData(put.Cache, put.Data) })
		return
	}
	c.stats.DirectedSends.Inc()
	c.send(c.cfg.Topo.CacheNode(owner), msg.Message{Kind: msg.KindPurge, Block: a, Cache: owner, RW: rw})
	c.await(a, onData)
}

func (c *Controller) await(a addr.Block, onData func(int, uint64)) {
	if put, ok := c.txns.PopStash(a); ok {
		c.kernel.After(0, func() { onData(put.Cache, put.Data) })
		return
	}
	if !c.txns.Await(a, onData) {
		panic(fmt.Sprintf("duplication: two waiters for %v", a))
	}
}

func (c *Controller) done(a addr.Block) {
	if since, _, ok := c.txns.End(a); ok {
		c.stats.BusyCycles.Add(uint64(c.kernel.Now() - since))
	}
	c.ser.Done(a)
}
