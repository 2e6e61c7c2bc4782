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
	// Obs is the observability recorder; the full-map controller uses it
	// for transaction-span attribution and, when windows are enabled,
	// the directory-state census gauges (through the two-bit
	// abstraction, so the series align with internal/core's). nil costs
	// nothing.
	Obs *obs.Recorder
}

// Controller is a Censier–Feautrier-style memory controller.
type Controller struct {
	cfg    Config
	kernel *sim.Kernel
	net    network.Network
	mem    *memory.Module
	dir    *directory.FullMap
	ser    *proto.Serializer
	calls  *proto.CallQueue
	stats  proto.CtrlStats

	// txns holds each block's open transaction: its start (for occupancy
	// accounting and state snapshots), the data continuation it is parked
	// on, and puts that arrived before it started.
	txns *proto.Txns

	sp *obs.SpanRecorder
	// tsCensus is the machine-wide directory-state census, indexed by
	// the two-bit directory.State the exact map projects to; all nil
	// unless windows were enabled on the recorder.
	tsCensus [4]*obs.TimeSeries
}

// New constructs the controller and wires it to the network.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Space.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:    cfg,
		kernel: kernel,
		net:    net,
		mem:    mem,
		dir:    directory.NewFullMap(cfg.Space.BlocksInModule(cfg.Module), cfg.Topo.Caches),
		txns:   proto.NewTxns(cfg.Space, cfg.Module),
	}
	c.sp = cfg.Obs.Spans()
	if ts := cfg.Obs.Windows(); ts != nil {
		for s := range c.tsCensus {
			c.tsCensus[s] = ts.Series(obs.DirStateSeriesNames[s], obs.SeriesGauge)
		}
		// Every block this module owns starts Absent.
		c.tsCensus[directory.Absent].GaugeAdd(int64(cfg.Space.BlocksInModule(cfg.Module)))
	}
	c.ser = proto.NewSerializer(cfg.Mode, cfg.Space, cfg.Module, c.begin)
	c.calls = proto.NewCallQueue(kernel, c.service)
	net.Attach(c.node(), c)
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg, keeping the network attachment and the directory/serializer/call
// slab backing storage. Module, Topo and Space are machine shape and must
// match construction. Pooled machines run uninstrumented, so cfg.Obs must
// be nil; instrumented configs rebuild the machine instead.
func (c *Controller) Reset(cfg Config) {
	if cfg.Obs != nil {
		panic("fullmap: Reset with Obs set — rebuild instead")
	}
	if cfg.Module != c.cfg.Module || cfg.Topo != c.cfg.Topo || cfg.Space != c.cfg.Space {
		panic("fullmap: Reset shape differs from construction")
	}
	c.cfg = cfg
	c.dir.Reset()
	c.ser.Reset(cfg.Mode)
	c.calls.Reset()
	c.stats = proto.CtrlStats{}
	c.txns.Reset()
}

// CtrlStats implements proto.MemSide.
func (c *Controller) CtrlStats() *proto.CtrlStats { return &c.stats }

// State derives the two-bit abstraction of block b's exact state.
func (c *Controller) State(b addr.Block) directory.State { return c.dir.GlobalState(c.local(b)) }

// Holders returns the exact holder set of block b, for invariants.
func (c *Controller) Holders(b addr.Block) []int { return c.dir.Holders(c.local(b)) }

// Modified reports the m bit of block b, for invariants.
func (c *Controller) Modified(b addr.Block) bool { return c.dir.Modified(c.local(b)) }

// MemVersion returns main memory's stored version of b, for invariants.
func (c *Controller) MemVersion(b addr.Block) uint64 { return c.mem.Read(b) }

// Quiescent reports whether no transaction is active or queued.
func (c *Controller) Quiescent() bool {
	return c.ser.ActiveCount() == 0 && c.ser.QueuedLen() == 0 && !c.txns.Parked()
}

func (c *Controller) node() network.NodeID                   { return c.cfg.Topo.CtrlNode(c.cfg.Module) }
func (c *Controller) local(b addr.Block) int                 { return int(c.cfg.Space.LocalIndex(b)) }
func (c *Controller) send(dst network.NodeID, m msg.Message) { c.net.Send(c.node(), dst, m) }

// censusPre samples block li's two-bit state before a directory
// mutation; censusMoved, called after, moves the block between the
// census gauges if the projected state changed. The pair brackets each
// mutation cluster because the exact map has no single transition
// choke point the way core's setState is.
func (c *Controller) censusPre(li int) directory.State {
	if c.tsCensus[directory.Absent] == nil {
		return directory.Absent
	}
	return c.dir.GlobalState(li)
}

func (c *Controller) censusMoved(li int, old directory.State) {
	if c.tsCensus[directory.Absent] == nil {
		return
	}
	if s := c.dir.GlobalState(li); s != old {
		c.tsCensus[old].GaugeAdd(-1)
		c.tsCensus[s].GaugeAdd(1)
	}
}

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindRequest || m.Kind == msg.KindMRequest {
		// The requester's span: its REQUEST/MREQUEST transit ends here.
		c.sp.Mark(m.Cache, obs.PhaseReqTransit)
	}
	switch m.Kind {
	case msg.KindRequest, msg.KindEject, msg.KindMRequest,
		msg.KindUncachedRead, msg.KindUncachedWrite:
		c.ser.Submit(proto.Pending{Src: src, M: m})
		c.stats.NoteQueue(c.ser.QueuedLen())
	case msg.KindPut:
		c.handlePut(m)
	case msg.KindMAck:
		// The shared cache agent acknowledges every positive grant; the
		// full map's grants are provably safe (a set presence bit means no
		// INV can be in flight), so the confirmation carries no news.
	default:
		panic(fmt.Sprintf("fullmap: controller %d: unexpected %v", c.cfg.Module, m))
	}
}

func (c *Controller) handlePut(m msg.Message) {
	if onData := c.txns.TakeData(m.Block); onData != nil {
		removed := c.ser.DeleteQueued(m.Block, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == m.Cache
		})
		if removed > 0 {
			// The data came from a racing eviction, not a PURGE answer:
			// the sender's copy is gone, so its presence bit clears here
			// (the deleted EJECT would have done it).
			li := c.local(m.Block)
			pre := c.censusPre(li)
			c.dir.SetPresent(li, m.Cache, false)
			c.censusMoved(li, pre)
		}
		onData(m.Cache, m.Data)
		return
	}
	c.txns.Stash(m.Block, m.Cache, m.Data)
}

func (c *Controller) begin(p proto.Pending) {
	c.txns.Begin(p.M.Block, c.kernel.Now(), p.M)
	c.calls.Service(c.cfg.Lat.CtrlService, p)
}

func (c *Controller) service(p proto.Pending) {
	switch p.M.Kind {
	case msg.KindRequest:
		c.stats.Requests.Inc()
		c.sp.Mark(p.M.Cache, obs.PhaseQueue)
		if p.M.RW == msg.Read {
			c.readMiss(p)
		} else {
			c.writeMiss(p)
		}
	case msg.KindMRequest:
		c.sp.Mark(p.M.Cache, obs.PhaseQueue)
		c.mrequest(p)
	case msg.KindEject:
		c.eject(p)
	case msg.KindUncachedRead:
		c.dmaRead(p)
	case msg.KindUncachedWrite:
		c.dmaWrite(p)
	default:
		panic(fmt.Sprintf("fullmap: controller %d: cannot service %v", c.cfg.Module, p.M))
	}
}

// dmaRead services an uncached I/O read with exact knowledge: a modified
// block is purged from its owner (who keeps a clean copy); otherwise
// memory is current.
func (c *Controller) dmaRead(p proto.Pending) {
	c.stats.DMAReads.Inc()
	a := p.M.Block
	li := c.local(a)
	reply := func(data uint64) {
		c.send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: data})
	}
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.mem.Write(a, data)
				pre := c.censusPre(li)
				c.dir.SetModified(li, false)
				c.censusMoved(li, pre)
				reply(data)
				c.done(a)
			})
		})
		return
	}
	c.kernel.After(c.cfg.Lat.Memory, func() {
		reply(c.mem.Read(a))
		c.done(a)
	})
}

// dmaWrite services an uncached I/O write of a whole block: the owner (if
// modified) is drained and discarded, every holder is invalidated by a
// directed INV, and the write linearizes at the memory update.
func (c *Controller) dmaWrite(p proto.Pending) {
	c.stats.DMAWrites.Inc()
	a := p.M.Block
	li := c.local(a)
	version := p.M.Data
	finish := func() {
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.mem.Write(a, version)
			if c.cfg.Commit != nil {
				c.cfg.Commit(a, version)
			}
			c.send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: version})
			pre := c.censusPre(li)
			c.dir.Clear(li)
			c.censusMoved(li, pre)
			c.done(a)
		})
	}
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.purge(a, msg.Write, owner, func(int, uint64) { finish() })
		return
	}
	c.invalidateHolders(a, -1)
	finish()
}

func (c *Controller) sendGet(k int, a addr.Block, data uint64, exclusive bool) {
	c.send(c.cfg.Topo.CacheNode(k), msg.Message{
		Kind: msg.KindGet, Block: a, Cache: k, Data: data, Ok: exclusive,
	})
}

// modifiedOwner returns the single holder of a modified block.
func (c *Controller) modifiedOwner(a addr.Block) int {
	h := c.dir.Holders(c.local(a))
	if len(h) != 1 {
		panic(fmt.Sprintf("fullmap: modified %v has %d holders", a, len(h)))
	}
	return h[0]
}

// readMiss services REQUEST(k,a,"read") with exact knowledge.
func (c *Controller) readMiss(p proto.Pending) {
	c.stats.ReadMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	li := c.local(a)
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.purge(a, msg.Read, owner, func(_ int, data uint64) {
			c.sp.Mark(k, obs.PhaseWriteback)
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.sp.Mark(k, obs.PhaseMemory)
				c.mem.Write(a, data)
				c.sendGet(k, a, data, false)
				pre := c.censusPre(li)
				c.dir.SetModified(li, false)
				// The previous owner's presence bit is already accurate:
				// either it answered the PURGE and kept a clean copy (bit
				// stays set), or the data arrived via a racing eviction and
				// the put-consumption path cleared the bit.
				c.dir.SetPresent(li, k, true)
				c.censusMoved(li, pre)
				c.done(a)
			})
		})
		return
	}
	exclusive := c.cfg.LocalExclusive && c.dir.HolderCount(li) == 0
	c.kernel.After(c.cfg.Lat.Memory, func() {
		c.sp.Mark(k, obs.PhaseMemory)
		data := c.mem.Read(a)
		c.sendGet(k, a, data, exclusive)
		pre := c.censusPre(li)
		c.dir.SetPresent(li, k, true)
		if exclusive {
			// Pessimistic m bit: the owner may modify silently (§2.4.3).
			c.dir.SetModified(li, true)
		}
		c.censusMoved(li, pre)
		c.done(a)
	})
}

// writeMiss services REQUEST(k,a,"write") with exact knowledge.
func (c *Controller) writeMiss(p proto.Pending) {
	c.stats.WriteMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	li := c.local(a)
	finish := func(data uint64) {
		c.sendGet(k, a, data, false)
		pre := c.censusPre(li)
		c.dir.Clear(li)
		c.dir.SetPresent(li, k, true)
		c.dir.SetModified(li, true)
		c.censusMoved(li, pre)
		c.done(a)
	}
	if c.dir.Modified(li) {
		owner := c.modifiedOwner(a)
		c.purge(a, msg.Write, owner, func(_ int, data uint64) {
			c.sp.Mark(k, obs.PhaseWriteback)
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.sp.Mark(k, obs.PhaseMemory)
				c.mem.Write(a, data)
				finish(data)
			})
		})
		return
	}
	// Directed invalidations to the exact holders (no broadcast, ever).
	c.invalidateHolders(a, k)
	c.kernel.After(c.cfg.Lat.Memory, func() {
		c.sp.Mark(k, obs.PhaseMemory)
		finish(c.mem.Read(a))
	})
}

// mrequest services the §3.2.4 equivalent. The exact map makes the grant
// decision trivially safe: the presence bit for k is cleared the moment an
// INV is sent, so "bit set" means no invalidation can be in flight.
func (c *Controller) mrequest(p proto.Pending) {
	c.stats.MRequests.Inc()
	k, a := p.M.Cache, p.M.Block
	li := c.local(a)
	if !c.dir.Present(li, k) || c.dir.Modified(li) {
		c.stats.MGrantDenied.Inc()
		c.send(c.cfg.Topo.CacheNode(k), msg.Message{
			Kind: msg.KindMGranted, Block: a, Cache: k, Ok: false,
		})
		c.done(a)
		return
	}
	c.invalidateHolders(a, k)
	c.send(c.cfg.Topo.CacheNode(k), msg.Message{
		Kind: msg.KindMGranted, Block: a, Cache: k, Ok: true,
	})
	pre := c.censusPre(li)
	c.dir.SetModified(li, true)
	c.censusMoved(li, pre)
	c.done(a)
}

// eject services §3.2.1 with exact bookkeeping.
func (c *Controller) eject(p proto.Pending) {
	c.stats.Ejects.Inc()
	k, a := p.M.Cache, p.M.Block
	li := c.local(a)
	if p.M.RW == msg.Read {
		pre := c.censusPre(li)
		c.dir.SetPresent(li, k, false)
		// A clean ejection by a Yen–Fu exclusive owner leaves the
		// pessimistic m bit dangling; clear it when no holders remain.
		if c.dir.HolderCount(li) == 0 {
			c.dir.SetModified(li, false)
		}
		c.censusMoved(li, pre)
		c.done(a)
		return
	}
	c.await(a, func(_ int, data uint64) {
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.mem.Write(a, data)
			pre := c.censusPre(li)
			c.dir.SetPresent(li, k, false)
			if c.dir.HolderCount(li) == 0 {
				c.dir.SetModified(li, false)
			}
			c.censusMoved(li, pre)
			c.done(a)
		})
	})
}

// invalidateHolders sends directed INVs to every holder except k, clearing
// their presence bits, and deletes their queued MREQUESTs (§3.2.5 applies
// to the full map too).
func (c *Controller) invalidateHolders(a addr.Block, k int) {
	li := c.local(a)
	pre := c.censusPre(li)
	for _, h := range c.dir.Holders(li) {
		if h == k {
			continue
		}
		c.stats.DirectedSends.Inc()
		c.send(c.cfg.Topo.CacheNode(h), msg.Message{Kind: msg.KindInv, Block: a, Cache: h})
		c.dir.SetPresent(li, h, false)
	}
	c.censusMoved(li, pre)
	if n := c.ser.DeleteQueued(a, func(p proto.Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != k
	}); n > 0 {
		c.stats.DeletedMRequests.Add(uint64(n))
	}
}

// purge sends the directed PURGE(a,owner,rw) and registers the data
// continuation (which may be satisfied by a racing eviction's put).
func (c *Controller) purge(a addr.Block, rw msg.RW, owner int, onData func(int, uint64)) {
	if put, ok := c.txns.PopStash(a); ok {
		c.ser.DeleteQueued(a, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == put.Cache
		})
		// The eviction's write-back subsumed the purge: the owner's copy is
		// gone, so clear its presence bit here.
		li := c.local(a)
		pre := c.censusPre(li)
		c.dir.SetPresent(li, put.Cache, false)
		c.censusMoved(li, pre)
		c.calls.Data(0, onData, put.Cache, put.Data)
		return
	}
	c.stats.DirectedSends.Inc()
	c.send(c.cfg.Topo.CacheNode(owner), msg.Message{Kind: msg.KindPurge, Block: a, Cache: owner, RW: rw})
	c.await(a, onData)
}

func (c *Controller) await(a addr.Block, onData func(int, uint64)) {
	if put, ok := c.txns.PopStash(a); ok {
		c.calls.Data(0, onData, put.Cache, put.Data)
		return
	}
	if !c.txns.Await(a, onData) {
		panic(fmt.Sprintf("fullmap: controller %d: two waiters for %v", c.cfg.Module, a))
	}
}

func (c *Controller) done(a addr.Block) {
	if since, _, ok := c.txns.End(a); ok {
		c.stats.BusyCycles.Add(uint64(c.kernel.Now() - since))
	}
	c.ser.Done(a)
}

// BlockSnapshot is the full-map analogue of core.BlockSnapshot: the
// controller's observable state for one block, for model-checker
// fingerprints. Holders is the exact presence-bit set.
type BlockSnapshot struct {
	Holders   []int
	Modified  bool
	Mem       uint64
	Active    bool
	ActiveCmd msg.Message
	Waiting   bool
	Stashed   []StashedPut
	Queued    []msg.Message
}

// StashedPut is one buffered early put.
type StashedPut = proto.StashedPut

// BlockSnapshot returns the observable controller state for block b.
func (c *Controller) BlockSnapshot(b addr.Block) BlockSnapshot {
	s := BlockSnapshot{
		Holders:  c.Holders(b),
		Modified: c.Modified(b),
		Mem:      c.mem.Read(b),
	}
	if t := c.txns.Get(b); t != nil {
		s.Active = t.Active
		s.ActiveCmd = t.Cmd
		s.Waiting = t.OnData != nil
		s.Stashed = append(s.Stashed, t.Stashed...)
	}
	for _, p := range c.ser.QueuedFor(b) {
		s.Queued = append(s.Queued, p.M)
	}
	return s
}
