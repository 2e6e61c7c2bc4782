// Package core implements the paper's contribution: the two-bit directory
// scheme of §3. Each memory controller K_j keeps two bits of global state
// per block of its module (Absent, Present1, Present*, PresentM) and runs
// the protocols of §3.2 — replacement, read miss, write miss, and write hit
// on a previously unmodified block — broadcasting BROADINV/BROADQUERY when
// a command must reach caches whose identity the map does not record.
//
// The controller resolves the synchronization races of §3.2.5 (and two
// further races the paper leaves implicit; see DESIGN.md):
//
//   - Racing MREQUESTs: commands for one block are serviced one at a time;
//     after a BROADINV, MREQUESTs still queued for that block from other
//     caches are deleted (the caches convert on the BROADINV themselves).
//   - A stale MREQUEST arriving while the block is PresentM or Absent is
//     denied immediately with MGRANTED(k,false) — its sender's copy is
//     already doomed by an in-flight BROADINV.
//   - An EJECT(k,a,"write") racing a BROADQUERY for a: the controller
//     accepts the eviction's put as the query answer and deletes the
//     queued EJECT, whose write-back it has just performed.
//
// The optional translation buffer implements the §4.4 enhancement: a small
// LRU memory of exact owner sets that converts broadcasts into directed
// sends on a hit. Entries are only created when the owner set is exactly
// known (a superset invariant would otherwise break invalidation).
package core

import (
	"fmt"
	"slices"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// Config configures one two-bit memory controller.
type Config struct {
	Module int // which memory module this controller serves
	Topo   proto.Topology
	Space  addr.Space
	Lat    proto.Latencies
	Mode   proto.ConcurrencyMode
	// TranslationBufferSize enables the §4.4 owner cache when > 0.
	TranslationBufferSize int
	// Commit is the oracle hook for writes that linearize at the
	// controller (uncached I/O); may be nil.
	Commit proto.CommitFunc
	// Obs is the observability recorder; nil leaves the controller
	// uninstrumented at zero cost.
	Obs *obs.Recorder
	// Hooks injects deliberate protocol defects. Production configurations
	// leave it nil; the model checker's tests use it to prove the checker
	// finds the bugs each defense exists to prevent. See BugHooks.
	Hooks *BugHooks
}

// BugHooks disables individual protocol defenses, one per field — a
// test-only surface for internal/mcheck, which must demonstrate that
// removing a defense yields a counterexample (or, for the defenses that
// are performance optimizations backed by a deeper defense, that it does
// not). A nil *BugHooks is the production configuration.
type BugHooks struct {
	// SkipWriteMissInvalidate drops the §3.2.3 invalidation on a write
	// miss to a Present1/Present* block: the writer is granted the block
	// while stale clean copies survive — a single-writer violation.
	SkipWriteMissInvalidate bool
	// SkipStashedPutConsume makes the controller ignore stashed puts when
	// a transaction needs data (§3.2.5 EJECT × BROADQUERY): the query
	// broadcast finds no owner (it already evicted) and the transaction
	// waits forever — a deadlock.
	SkipStashedPutConsume bool
	// SkipMRequestQueueDelete drops the §3.2.5 "deletes MREQUEST(j,a)
	// from the queue" rule. The deny-on-service path and the MACK
	// confirmation still defend the directory, so this one should yield
	// no counterexample — the deletion is an optimization.
	SkipMRequestQueueDelete bool
}

// Controller is the two-bit memory controller K_j of Figure 3-1: the
// shared directory-controller skeleton around the two-bit policy.
type Controller struct {
	proto.DirController
	cfg Config
	dir *directory.TwoBitMap
	tb  *directory.TranslationBuffer
}

// New constructs the controller, wires it to the network, and returns it.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	c := &Controller{cfg: cfg}
	c.Init(cfg.skeleton(), kernel, net, mem, c)
	c.dir = directory.NewTwoBitMap(cfg.Space.BlocksInModule(cfg.Module))
	if cfg.TranslationBufferSize > 0 {
		c.tb = directory.NewTranslationBuffer(cfg.TranslationBufferSize)
	}
	return c
}

func (cfg Config) skeleton() proto.DirConfig {
	return proto.DirConfig{
		Module: cfg.Module, Topo: cfg.Topo, Space: cfg.Space, Mode: cfg.Mode,
		Service: cfg.Lat.CtrlService, Obs: cfg.Obs,
	}
}

// Reset restores the controller to its freshly-constructed state under
// cfg (see proto.DirController.Reset), keeping the directory and
// translation-buffer storage. Translation-buffer presence (size > 0 or
// not) must match construction — the buffer itself resizes freely — and
// pooled machines run without defect injection, so cfg.Hooks must be
// nil; such configs rebuild the machine instead.
func (c *Controller) Reset(cfg Config) {
	if cfg.Hooks != nil {
		panic("core: Reset with Hooks set — rebuild instead")
	}
	if (cfg.TranslationBufferSize > 0) != (c.tb != nil) {
		panic("core: Reset cannot toggle the translation buffer — rebuild instead")
	}
	c.DirController.Reset(cfg.skeleton())
	c.cfg = cfg
	c.dir.Reset()
	if c.tb != nil {
		c.tb.Reset(cfg.TranslationBufferSize)
	}
}

// TranslationBuffer returns the §4.4 owner cache, or nil when disabled.
func (c *Controller) TranslationBuffer() *directory.TranslationBuffer { return c.tb }

// State returns the global state of block b, for invariant checks.
func (c *Controller) State(b addr.Block) directory.State { return c.dir.Get(c.Local(b)) }

// Evicted implements proto.Policy: the two-bit map records no holders,
// so a racing eviction's write-back changes nothing the policy tracks.
func (c *Controller) Evicted(addr.Block, int) {}

func (c *Controller) setState(b addr.Block, s directory.State) {
	pre := c.Before(b)
	c.dir.Set(c.Local(b), s)
	c.Moved(b, pre)
}

// Deliver implements network.Handler: the skeleton's routing, plus the
// two-bit arrival rules for MREQUEST and MACK.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindMRequest {
		// Deny-on-arrival: if the block is PresentM or Absent, the sender's
		// clean copy is doomed by an in-flight BROADINV (or already gone);
		// granting later could install a phantom owner. See package doc.
		if s := c.State(m.Block); s == directory.PresentM || s == directory.Absent {
			c.DenyOnArrival(m)
			return
		}
	}
	if m.Kind == msg.KindMAck {
		onAck := c.Txns.TakeAck(m.Block)
		if onAck == nil {
			panic(fmt.Sprintf("core: controller %d: stray %v", c.cfg.Module, m))
		}
		onAck(m.Ok)
		return
	}
	c.DirController.Deliver(src, m)
}

// DMARead services an uncached I/O read: the device needs the most recent
// value but caches nothing. A PresentM block is retrieved from its owner
// (who keeps a clean copy, so the state becomes Present1); otherwise
// memory is current.
func (c *Controller) DMARead(p proto.Pending) {
	a := p.M.Block
	reply := func(data uint64) {
		c.Send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: data})
	}
	if c.State(a) == directory.PresentM {
		c.query(a, msg.Read, -1, func(owner int, data uint64) {
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Mem.Write(a, data)
				reply(data)
				c.setState(a, directory.Present1)
				c.tb.Record(a, []int{owner})
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

// DMAWrite services an uncached I/O write of a whole block: every cached
// copy must die first. A PresentM owner is drained through the BROADQUERY
// machinery (its racing write-back, if any, is consumed and discarded —
// the device's data overwrites it); clean copies are invalidated by
// BROADINV. The write linearizes at the memory update.
func (c *Controller) DMAWrite(p proto.Pending) {
	a := p.M.Block
	version := p.M.Data
	finish := func() {
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Mem.Write(a, version)
			if c.cfg.Commit != nil {
				c.cfg.Commit(a, version)
			}
			c.Send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: version})
			c.setState(a, directory.Absent)
			c.tb.Record(a, nil)
			c.Done(a)
		})
	}
	switch c.State(a) {
	case directory.PresentM:
		c.query(a, msg.Write, -1, func(int, uint64) { finish() })
	case directory.Present1, directory.PresentStar:
		c.invalidate(a, -1)
		finish()
	case directory.Absent:
		finish()
	}
}

// ReadMiss implements §3.2.2.
func (c *Controller) ReadMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	st := c.State(a)
	switch st {
	case directory.Absent, directory.Present1, directory.PresentStar:
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Sp.Mark(k, obs.PhaseMemory)
			data := c.Mem.Read(a)
			c.SendGet(k, a, data, false)
			if st == directory.Absent {
				c.setState(a, directory.Present1)
				c.tb.Record(a, []int{k})
			} else {
				c.setState(a, directory.PresentStar)
				c.tb.AddOwner(a, k)
			}
			c.Done(a)
		})
	case directory.PresentM:
		// Retrieve from the unknown owner, write back, then forward.
		c.query(a, msg.Read, k, func(owner int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.SendGet(k, a, data, false)
				// Owner kept a clean copy; the requester has one too.
				c.setState(a, directory.PresentStar)
				c.tb.Record(a, []int{owner, k})
				c.Done(a)
			})
		})
	}
}

// WriteMiss implements §3.2.3.
func (c *Controller) WriteMiss(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	switch st := c.State(a); st {
	case directory.Absent, directory.Present1, directory.PresentStar:
		if st != directory.Absent && (c.cfg.Hooks == nil || !c.cfg.Hooks.SkipWriteMissInvalidate) {
			c.invalidate(a, k)
		}
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Sp.Mark(k, obs.PhaseMemory)
			data := c.Mem.Read(a)
			c.SendGet(k, a, data, false)
			c.setState(a, directory.PresentM)
			c.tb.Record(a, []int{k})
			c.Done(a)
		})
	case directory.PresentM:
		c.query(a, msg.Write, k, func(owner int, data uint64) {
			c.Sp.Mark(k, obs.PhaseWriteback)
			c.Kernel.After(c.cfg.Lat.Memory, func() {
				c.Sp.Mark(k, obs.PhaseMemory)
				c.Mem.Write(a, data)
				c.SendGet(k, a, data, false)
				c.setState(a, directory.PresentM)
				c.tb.Record(a, []int{k})
				c.Done(a)
			})
		})
	}
}

// MRequest implements §3.2.4.
func (c *Controller) MRequest(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	// The grant takes effect only when the cache confirms it still held
	// the copy. An MREQUEST whose sender was invalidated after the §3.2.5
	// queue deletion ran would otherwise install a phantom owner: the
	// state would read PresentM while no modified copy exists, and the
	// next BROADQUERY would wait forever.
	grant := func(from directory.State) {
		c.Grant(k, a, true)
		c.Txns.AwaitAck(a, func(ok bool) {
			if ok {
				c.setState(a, directory.PresentM)
				c.tb.Record(a, []int{k})
				c.Done(a)
				return
			}
			// The sender had converted: its own copy is gone and its write
			// REQUEST, already queued behind us, will reload it. What the
			// denial says about *other* copies depends on how we granted.
			c.Stats.MGrantDenied.Inc()
			if from == directory.PresentStar {
				// The Present* path broadcast BROADINV before granting, so
				// every other copy is doomed too: the block is Absent.
				c.setState(a, directory.Absent)
				c.tb.Record(a, nil)
			} else {
				// The Present1 grant sent no invalidation. The denial proves
				// the tracked copy was never the sender's — it belongs to
				// another cache and is still live, so Present1 stands.
				// Resetting to Absent here would let the sender's queued
				// write REQUEST be serviced without BROADINV, stranding that
				// live copy stale forever (found by internal/mcheck).
				c.tb.Drop(a)
			}
			c.Done(a)
		})
	}
	switch c.State(a) {
	case directory.Present1:
		// Case 1: the sole copy is k's — this justifies keeping Present1.
		grant(directory.Present1)
	case directory.PresentStar:
		// Case 2: invalidate every other copy, then grant.
		c.invalidate(a, k)
		grant(directory.PresentStar)
	case directory.Absent, directory.PresentM:
		// The block's state changed while the MREQUEST waited (the
		// deny-on-arrival check covers most of this; a state change while
		// queued lands here). The sender converts on the BROADINV it has
		// received; deny for completeness.
		c.Deny(k, a)
		c.Done(a)
	}
}

// Eject implements §3.2.1 (controller side).
func (c *Controller) Eject(p proto.Pending) {
	k, a := p.M.Cache, p.M.Block
	if p.M.RW == msg.Read {
		// Case 2: a clean ejection can reclaim the block toward Absent.
		//
		// The paper's Present1 → Absent transition assumes the arriving
		// EJECT describes the copy Present1 counts. Under a network that
		// only preserves per-pair FIFO order that assumption fails: an
		// EJECT can be overtaken by another cache's commands, arriving
		// after its copy was invalidated and the block re-fetched — the
		// Present1 then counts the *new* holder's copy, and dropping to
		// Absent would let the next write skip BROADINV and strand that
		// live copy stale forever (found by internal/mcheck). The two-bit
		// state cannot identify the holder, so:
		//
		//   - with an exact §4.4 translation-buffer entry, the EJECT is
		//     validated against the true owner set: stale ejects are
		//     dropped, and the last owner leaving reclaims Absent exactly
		//     as §3.2.1 intends;
		//   - without one, Present1 degrades to the Present* overcount —
		//     always safe, at the price of one BROADINV on the next write.
		if owners, exact := c.tbLookup(a); exact {
			if !slices.Contains(owners, k) {
				c.Done(a) // stale: k's copy was already invalidated
				return
			}
			c.tb.RemoveOwner(a, k)
			if len(owners) == 1 && c.State(a) == directory.Present1 {
				c.setState(a, directory.Absent)
				c.tb.Record(a, nil)
			}
		} else {
			if c.State(a) == directory.Present1 {
				c.setState(a, directory.PresentStar)
			}
			c.tb.RemoveOwner(a, k)
		}
		c.Done(a)
		return
	}
	// Case 3: await the put, write back, state becomes Absent.
	c.await(a, func(owner int, data uint64) {
		c.Kernel.After(c.cfg.Lat.Memory, func() {
			c.Mem.Write(a, data)
			if c.State(a) == directory.PresentM {
				c.setState(a, directory.Absent)
			}
			c.tb.Record(a, nil)
			c.Done(a)
		})
	})
}

// invalidate sends the invalidation for block a exempting cache k: a
// BROADINV broadcast, or directed INVs when the translation buffer knows
// the exact owner set (§4.4). It then deletes queued MREQUESTs from other
// caches (§3.2.5) — those caches convert on the invalidation themselves.
func (c *Controller) invalidate(a addr.Block, k int) {
	if owners, ok := c.tbLookup(a); ok {
		for _, o := range owners {
			if o != k {
				c.Directed(o, msg.Message{Kind: msg.KindInv, Block: a, Cache: o})
			}
		}
	} else {
		c.Broadcast(k, msg.Message{Kind: msg.KindBroadInv, Block: a, Cache: k})
	}
	if c.cfg.Hooks == nil || !c.cfg.Hooks.SkipMRequestQueueDelete {
		c.DeleteRacingMRequests(a, k)
	}
}

// query asks the unknown owner of block a (state PresentM) for its data:
// a BROADQUERY broadcast, or a directed PURGE on a translation-buffer hit.
// onData runs when the data arrives (possibly via a racing eviction).
func (c *Controller) query(a addr.Block, rw msg.RW, k int, onData func(owner int, data uint64)) {
	if c.stashUsable() {
		// The owner's eviction may already have delivered the data (its
		// EJECT queued behind us, its put arrived early).
		if _, ok := c.UseStash(a, onData); ok {
			return
		}
	}
	if owners, ok := c.tbLookup(a); ok && len(owners) > 0 {
		for _, o := range owners {
			if o != k {
				c.Directed(o, msg.Message{Kind: msg.KindPurge, Block: a, Cache: o, RW: rw})
			}
		}
	} else {
		if ok {
			// An empty owner set contradicts PresentM; distrust the buffer.
			c.tb.Drop(a)
		}
		c.Broadcast(k, msg.Message{Kind: msg.KindBroadQuery, Block: a, RW: rw, Cache: k})
	}
	c.await(a, onData)
}

// await registers the active transaction's data continuation, consuming a
// stashed put if one is already buffered.
func (c *Controller) await(a addr.Block, onData func(owner int, data uint64)) {
	if c.stashUsable() {
		c.Await(a, onData)
	} else {
		c.Park(a, onData)
	}
}

// stashUsable reports whether stashed puts may be consumed: false only
// under the injected SkipStashedPutConsume defect.
func (c *Controller) stashUsable() bool {
	return c.cfg.Hooks == nil || !c.cfg.Hooks.SkipStashedPutConsume
}

// tbLookup consults the translation buffer, counting hits and misses; it
// misses without counting when the buffer is disabled.
func (c *Controller) tbLookup(a addr.Block) ([]int, bool) {
	if c.tb == nil {
		return nil, false
	}
	owners, ok := c.tb.Lookup(a)
	if ok {
		c.Stats.TBHits.Inc()
	} else {
		c.Stats.TBMisses.Inc()
	}
	return owners, ok
}
