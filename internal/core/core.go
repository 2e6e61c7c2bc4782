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

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// txnNames holds the static async-span name per command kind
// ("txn Request", ...), precomputed so begin() never builds strings.
var txnNames [64]string

// stateEventNames names the instant emitted on each directory
// transition, indexed by the destination state. The metric slugs in
// stateCounterSuffix match: directory.State.String uses "Present*",
// which is hostile to metric-name tooling.
var stateEventNames = [4]string{"dir to Absent", "dir to Present1", "dir to Present*", "dir to PresentM"}

var stateCounterSuffix = [4]string{"dir_to_absent", "dir_to_present1", "dir_to_present_star", "dir_to_present_m"}

func init() {
	for k := range txnNames {
		txnNames[k] = "txn " + msg.Kind(k).String()
	}
}

func txnName(k msg.Kind) string {
	if int(k) < len(txnNames) {
		return txnNames[k]
	}
	return "txn"
}

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

// Controller is the two-bit memory controller K_j of Figure 3-1.
type Controller struct {
	cfg    Config
	kernel *sim.Kernel
	net    network.Network
	mem    *memory.Module
	dir    *directory.TwoBitMap
	ser    *proto.Serializer
	calls  *proto.CallQueue
	tb     *directory.TranslationBuffer
	stats  proto.CtrlStats

	// exceptScratch is the reusable broadcast exclusion list; Broadcast
	// consumes it synchronously, so one buffer per controller suffices.
	exceptScratch []network.NodeID

	// txns holds each block's open transaction: its start (for occupancy
	// accounting and the async trace span), the continuation it is parked
	// on — a BROADQUERY answer, an EJECT write-back in flight or an
	// MREQUEST grant's MACK — and puts that arrived before it started.
	txns *proto.Txns

	rec           *obs.Recorder
	comp          obs.Component   // "ctrl<j>" trace track
	obsQueue      *obs.Histogram  // "ctrl<j>/queue_depth" at submit
	obsTxn        *obs.Histogram  // "ctrl<j>/txn_cycles" begin → done
	obsBroadcasts *obs.Counter    // "ctrl<j>/broadcasts"
	obsStateTo    [4]*obs.Counter // "ctrl<j>/dir_to_*" transition counts
	tsQueue       *obs.TimeSeries // "ctrl<j>/queue_depth" windowed peak
	// tsCensus is the machine-wide directory-state census, indexed by
	// directory.State: each controller moves its blocks between the
	// shared obs.DirStateSeriesNames gauges as it transitions them.
	tsCensus [4]*obs.TimeSeries
	sp       *obs.SpanRecorder
}

// New constructs the controller, wires it to the network, and returns it.
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
		dir:    directory.NewTwoBitMap(cfg.Space.BlocksInModule(cfg.Module)),
		txns:   proto.NewTxns(cfg.Space, cfg.Module),
		comp:   obs.NoComponent,
	}
	if cfg.Obs != nil {
		c.rec = cfg.Obs
		prefix := fmt.Sprintf("ctrl%d", cfg.Module)
		c.comp = cfg.Obs.Component(prefix)
		c.obsQueue = cfg.Obs.Histogram(prefix+"/queue_depth", 1)
		c.obsTxn = cfg.Obs.Histogram(prefix+"/txn_cycles", 16)
		c.obsBroadcasts = cfg.Obs.Counter(prefix + "/broadcasts")
		for s := range c.obsStateTo {
			c.obsStateTo[s] = cfg.Obs.Counter(prefix + "/" + stateCounterSuffix[s])
		}
		if ts := cfg.Obs.Windows(); ts != nil {
			c.tsQueue = ts.Series(prefix+"/queue_depth", obs.SeriesMax)
			for s := range c.tsCensus {
				c.tsCensus[s] = ts.Series(obs.DirStateSeriesNames[s], obs.SeriesGauge)
			}
			// Every block this module owns starts Absent.
			c.tsCensus[directory.Absent].GaugeAdd(int64(cfg.Space.BlocksInModule(cfg.Module)))
		}
	}
	c.sp = cfg.Obs.Spans()
	if cfg.TranslationBufferSize > 0 {
		c.tb = directory.NewTranslationBuffer(cfg.TranslationBufferSize)
	}
	c.ser = proto.NewSerializer(cfg.Mode, cfg.Space, cfg.Module, c.begin)
	c.calls = proto.NewCallQueue(kernel, c.service)
	net.Attach(c.node(), c)
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg, keeping the network attachment and the directory/serializer/call
// slab backing storage. Module, Topo and Space are machine shape and must
// match construction, as must translation-buffer presence (size > 0 or
// not — the buffer itself resizes freely). Pooled machines run without
// instrumentation or defect injection, so cfg.Obs and cfg.Hooks must be
// nil; such configs rebuild the machine instead.
func (c *Controller) Reset(cfg Config) {
	if cfg.Obs != nil || cfg.Hooks != nil {
		panic("core: Reset with Obs or Hooks set — rebuild instead")
	}
	if cfg.Module != c.cfg.Module || cfg.Topo != c.cfg.Topo || cfg.Space != c.cfg.Space {
		panic("core: Reset shape differs from construction")
	}
	if (cfg.TranslationBufferSize > 0) != (c.tb != nil) {
		panic("core: Reset cannot toggle the translation buffer — rebuild instead")
	}
	c.cfg = cfg
	c.dir.Reset()
	if c.tb != nil {
		c.tb.Reset(cfg.TranslationBufferSize)
	}
	c.ser.Reset(cfg.Mode)
	c.calls.Reset()
	c.stats = proto.CtrlStats{}
	c.txns.Reset()
}

// CtrlStats implements proto.MemSide.
func (c *Controller) CtrlStats() *proto.CtrlStats { return &c.stats }

// TranslationBuffer returns the §4.4 owner cache, or nil when disabled.
func (c *Controller) TranslationBuffer() *directory.TranslationBuffer { return c.tb }

// State returns the global state of block b, for invariant checks.
func (c *Controller) State(b addr.Block) directory.State { return c.dir.Get(c.local(b)) }

// MemVersion returns main memory's stored version of b, for invariants.
func (c *Controller) MemVersion(b addr.Block) uint64 { return c.mem.Read(b) }

// Quiescent reports whether no transaction is active or queued.
func (c *Controller) Quiescent() bool {
	return c.ser.ActiveCount() == 0 && c.ser.QueuedLen() == 0 && !c.txns.Parked()
}

func (c *Controller) node() network.NodeID { return c.cfg.Topo.CtrlNode(c.cfg.Module) }

func (c *Controller) local(b addr.Block) int { return c.cfg.Space.LocalIndex(b) }

func (c *Controller) setState(b addr.Block, s directory.State) {
	if c.rec != nil {
		if old := c.dir.Get(c.local(b)); old != s {
			c.obsStateTo[s].Inc()
			c.tsCensus[old].GaugeAdd(-1)
			c.tsCensus[s].GaugeAdd(1)
			c.rec.Emit(c.comp, stateEventNames[s], int64(b), int64(old))
		}
	}
	c.dir.Set(c.local(b), s)
}

func (c *Controller) send(dst network.NodeID, m msg.Message) { c.net.Send(c.node(), dst, m) }

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindRequest || m.Kind == msg.KindMRequest {
		// The requester's span: its REQUEST/MREQUEST transit ends here
		// (the deny-on-arrival answer below is part of the same span).
		c.sp.Mark(m.Cache, obs.PhaseReqTransit)
	}
	switch m.Kind {
	case msg.KindRequest, msg.KindEject, msg.KindUncachedRead, msg.KindUncachedWrite:
		c.submit(src, m)
	case msg.KindMRequest:
		// Deny-on-arrival: if the block is PresentM or Absent, the sender's
		// clean copy is doomed by an in-flight BROADINV (or already gone);
		// granting later could install a phantom owner. See package doc.
		switch c.State(m.Block) {
		case directory.PresentM, directory.Absent:
			c.stats.MGrantDenied.Inc()
			c.send(c.cfg.Topo.CacheNode(m.Cache), msg.Message{
				Kind: msg.KindMGranted, Block: m.Block, Cache: m.Cache, Ok: false,
			})
		case directory.Present1, directory.PresentStar:
			c.submit(src, m)
		}
	case msg.KindPut:
		c.handlePut(m)
	case msg.KindMAck:
		onAck := c.txns.TakeAck(m.Block)
		if onAck == nil {
			panic(fmt.Sprintf("core: controller %d: stray %v", c.cfg.Module, m))
		}
		onAck(m.Ok)
	default:
		panic(fmt.Sprintf("core: controller %d: unexpected %v", c.cfg.Module, m))
	}
}

func (c *Controller) submit(src network.NodeID, m msg.Message) {
	c.ser.Submit(proto.Pending{Src: src, M: m})
	c.stats.NoteQueue(c.ser.QueuedLen())
	c.obsQueue.Observe(uint64(c.ser.QueuedLen()))
	c.tsQueue.Observe(uint64(c.ser.QueuedLen()))
}

// handlePut routes a data transfer to the transaction awaiting it, or
// stashes it for a queued EJECT("write").
func (c *Controller) handlePut(m msg.Message) {
	if onData := c.txns.TakeData(m.Block); onData != nil {
		// If this put belongs to an in-flight eviction whose EJECT is still
		// queued, the active transaction subsumes its write-back: delete it.
		c.ser.DeleteQueued(m.Block, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == m.Cache
		})
		onData(m.Cache, m.Data)
		return
	}
	c.txns.Stash(m.Block, m.Cache, m.Data)
}

// begin starts servicing one command after the controller service time.
func (c *Controller) begin(p proto.Pending) {
	c.txns.Begin(p.M.Block, c.kernel.Now(), p.M)
	if c.rec != nil {
		c.rec.AsyncBegin(c.comp, txnName(p.M.Kind), int64(p.M.Block))
	}
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
		panic(fmt.Sprintf("core: controller %d: cannot service %v", c.cfg.Module, p.M))
	}
}

// dmaRead services an uncached I/O read: the device needs the most recent
// value but caches nothing. A PresentM block is retrieved from its owner
// (who keeps a clean copy, so the state becomes Present1); otherwise
// memory is current.
func (c *Controller) dmaRead(p proto.Pending) {
	c.stats.DMAReads.Inc()
	a := p.M.Block
	reply := func(data uint64) {
		c.send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: data})
	}
	if c.State(a) == directory.PresentM {
		c.query(a, msg.Read, -1, func(owner int, data uint64) {
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.mem.Write(a, data)
				reply(data)
				c.setState(a, directory.Present1)
				c.tbRecord(a, []int{owner})
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

// dmaWrite services an uncached I/O write of a whole block: every cached
// copy must die first. A PresentM owner is drained through the BROADQUERY
// machinery (its racing write-back, if any, is consumed and discarded —
// the device's data overwrites it); clean copies are invalidated by
// BROADINV. The write linearizes at the memory update.
func (c *Controller) dmaWrite(p proto.Pending) {
	c.stats.DMAWrites.Inc()
	a := p.M.Block
	version := p.M.Data
	finish := func() {
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.mem.Write(a, version)
			if c.cfg.Commit != nil {
				c.cfg.Commit(a, version)
			}
			c.send(p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: p.M.Cache, Data: version})
			c.setState(a, directory.Absent)
			c.tbRecord(a, nil)
			c.done(a)
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

// grantGet reads memory (or uses data already in hand) and sends get(k,a).
func (c *Controller) sendGet(k int, a addr.Block, data uint64) {
	c.send(c.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindGet, Block: a, Cache: k, Data: data})
}

// readMiss implements §3.2.2.
func (c *Controller) readMiss(p proto.Pending) {
	c.stats.ReadMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	st := c.State(a)
	switch st {
	case directory.Absent, directory.Present1, directory.PresentStar:
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.sp.Mark(k, obs.PhaseMemory)
			data := c.mem.Read(a)
			c.sendGet(k, a, data)
			if st == directory.Absent {
				c.setState(a, directory.Present1)
				c.tbRecord(a, []int{k})
			} else {
				c.setState(a, directory.PresentStar)
				c.tbAddOwner(a, k)
			}
			c.done(a)
		})
	case directory.PresentM:
		// Retrieve from the unknown owner, write back, then forward.
		c.query(a, msg.Read, k, func(owner int, data uint64) {
			c.sp.Mark(k, obs.PhaseWriteback)
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.sp.Mark(k, obs.PhaseMemory)
				c.mem.Write(a, data)
				c.sendGet(k, a, data)
				// Owner kept a clean copy; the requester has one too.
				c.setState(a, directory.PresentStar)
				c.tbRecord(a, []int{owner, k})
				c.done(a)
			})
		})
	}
}

// writeMiss implements §3.2.3.
func (c *Controller) writeMiss(p proto.Pending) {
	c.stats.WriteMisses.Inc()
	k, a := p.M.Cache, p.M.Block
	switch c.State(a) {
	case directory.Absent:
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.sp.Mark(k, obs.PhaseMemory)
			data := c.mem.Read(a)
			c.sendGet(k, a, data)
			c.setState(a, directory.PresentM)
			c.tbRecord(a, []int{k})
			c.done(a)
		})
	case directory.Present1, directory.PresentStar:
		if c.cfg.Hooks == nil || !c.cfg.Hooks.SkipWriteMissInvalidate {
			c.invalidate(a, k)
		}
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.sp.Mark(k, obs.PhaseMemory)
			data := c.mem.Read(a)
			c.sendGet(k, a, data)
			c.setState(a, directory.PresentM)
			c.tbRecord(a, []int{k})
			c.done(a)
		})
	case directory.PresentM:
		c.query(a, msg.Write, k, func(owner int, data uint64) {
			c.sp.Mark(k, obs.PhaseWriteback)
			c.kernel.After(c.cfg.Lat.Memory, func() {
				c.sp.Mark(k, obs.PhaseMemory)
				c.mem.Write(a, data)
				c.sendGet(k, a, data)
				c.setState(a, directory.PresentM)
				c.tbRecord(a, []int{k})
				c.done(a)
			})
		})
	}
}

// mrequest implements §3.2.4.
func (c *Controller) mrequest(p proto.Pending) {
	c.stats.MRequests.Inc()
	k, a := p.M.Cache, p.M.Block
	// The grant takes effect only when the cache confirms it still held
	// the copy. An MREQUEST whose sender was invalidated after the §3.2.5
	// queue deletion ran would otherwise install a phantom owner: the
	// state would read PresentM while no modified copy exists, and the
	// next BROADQUERY would wait forever.
	grant := func(from directory.State) {
		c.send(c.cfg.Topo.CacheNode(k), msg.Message{
			Kind: msg.KindMGranted, Block: a, Cache: k, Ok: true,
		})
		c.txns.AwaitAck(a, func(ok bool) {
			if ok {
				c.setState(a, directory.PresentM)
				c.tbRecord(a, []int{k})
				c.done(a)
				return
			}
			// The sender had converted: its own copy is gone and its write
			// REQUEST, already queued behind us, will reload it. What the
			// denial says about *other* copies depends on how we granted.
			c.stats.MGrantDenied.Inc()
			if from == directory.PresentStar {
				// The Present* path broadcast BROADINV before granting, so
				// every other copy is doomed too: the block is Absent.
				c.setState(a, directory.Absent)
				c.tbRecord(a, nil)
			} else {
				// The Present1 grant sent no invalidation. The denial proves
				// the tracked copy was never the sender's — it belongs to
				// another cache and is still live, so Present1 stands.
				// Resetting to Absent here would let the sender's queued
				// write REQUEST be serviced without BROADINV, stranding that
				// live copy stale forever (found by internal/mcheck).
				c.tbDrop(a)
			}
			c.done(a)
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
		c.stats.MGrantDenied.Inc()
		c.send(c.cfg.Topo.CacheNode(k), msg.Message{
			Kind: msg.KindMGranted, Block: a, Cache: k, Ok: false,
		})
		c.done(a)
	}
}

// eject implements §3.2.1 (controller side).
func (c *Controller) eject(p proto.Pending) {
	c.stats.Ejects.Inc()
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
			if !containsOwner(owners, k) {
				c.done(a) // stale: k's copy was already invalidated
				return
			}
			c.tbRemoveOwner(a, k)
			if len(owners) == 1 && c.State(a) == directory.Present1 {
				c.setState(a, directory.Absent)
				c.tbRecord(a, nil)
			}
		} else {
			if c.State(a) == directory.Present1 {
				c.setState(a, directory.PresentStar)
			}
			c.tbRemoveOwner(a, k)
		}
		c.done(a)
		return
	}
	// Case 3: await the put, write back, state becomes Absent.
	c.await(a, func(owner int, data uint64) {
		c.kernel.After(c.cfg.Lat.Memory, func() {
			c.mem.Write(a, data)
			if c.State(a) == directory.PresentM {
				c.setState(a, directory.Absent)
			}
			c.tbRecord(a, nil)
			c.done(a)
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
			if o == k {
				continue
			}
			c.stats.DirectedSends.Inc()
			c.send(c.cfg.Topo.CacheNode(o), msg.Message{Kind: msg.KindInv, Block: a, Cache: o})
		}
	} else {
		c.stats.Broadcasts.Inc()
		c.obsBroadcasts.Inc()
		c.net.Broadcast(c.node(), msg.Message{Kind: msg.KindBroadInv, Block: a, Cache: k},
			c.broadcastExcept(k)...)
	}
	if c.cfg.Hooks != nil && c.cfg.Hooks.SkipMRequestQueueDelete {
		return
	}
	if n := c.ser.DeleteQueued(a, func(p proto.Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != k
	}); n > 0 {
		c.stats.DeletedMRequests.Add(uint64(n))
	}
}

// query asks the unknown owner of block a (state PresentM) for its data:
// a BROADQUERY broadcast, or a directed PURGE on a translation-buffer hit.
// onData runs when the data arrives (possibly via a racing eviction).
func (c *Controller) query(a addr.Block, rw msg.RW, k int, onData func(owner int, data uint64)) {
	if put, ok := c.popStash(a); ok {
		// The owner's eviction already delivered the data (its EJECT was
		// queued behind us and its put arrived early). Consume it and
		// delete the now-subsumed EJECT.
		c.ser.DeleteQueued(a, func(p proto.Pending) bool {
			return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == put.Cache
		})
		c.calls.Data(0, onData, put.Cache, put.Data)
		return
	}
	if owners, ok := c.tbLookup(a); ok && len(owners) > 0 {
		for _, o := range owners {
			if o == k {
				continue
			}
			c.stats.DirectedSends.Inc()
			c.send(c.cfg.Topo.CacheNode(o), msg.Message{Kind: msg.KindPurge, Block: a, Cache: o, RW: rw})
		}
	} else {
		if ok {
			// An empty owner set contradicts PresentM; distrust the buffer.
			c.tbDrop(a)
		}
		c.stats.Broadcasts.Inc()
		c.obsBroadcasts.Inc()
		c.net.Broadcast(c.node(), msg.Message{Kind: msg.KindBroadQuery, Block: a, RW: rw, Cache: k},
			c.broadcastExcept(k)...)
	}
	c.await(a, onData)
}

// await registers the active transaction's data continuation, consuming a
// stashed put if one is already buffered.
func (c *Controller) await(a addr.Block, onData func(owner int, data uint64)) {
	if put, ok := c.popStash(a); ok {
		c.calls.Data(0, onData, put.Cache, put.Data)
		return
	}
	if !c.txns.Await(a, onData) {
		panic(fmt.Sprintf("core: controller %d: two waiters for %v", c.cfg.Module, a))
	}
}

// popStash consumes the oldest put stashed for a, unless the
// SkipStashedPutConsume defect is injected.
func (c *Controller) popStash(a addr.Block) (proto.StashedPut, bool) {
	if c.cfg.Hooks != nil && c.cfg.Hooks.SkipStashedPutConsume {
		return proto.StashedPut{}, false
	}
	return c.txns.PopStash(a)
}

// done completes the active transaction on block a.
func (c *Controller) done(a addr.Block) {
	if since, cmd, ok := c.txns.End(a); ok {
		busy := uint64(c.kernel.Now() - since)
		c.stats.BusyCycles.Add(busy)
		c.obsTxn.Observe(busy)
		if c.rec != nil {
			c.rec.AsyncEnd(c.comp, txnName(cmd.Kind), int64(a))
		}
	}
	c.ser.Done(a)
}

// broadcastExcept builds the exclusion list for a broadcast exempting
// cache k: the controller's broadcasts go to caches only, so all other
// controllers are excluded too. The returned slice is the controller's
// reusable scratch buffer, valid until the next call.
func (c *Controller) broadcastExcept(k int) []network.NodeID {
	except := c.exceptScratch[:0]
	if k >= 0 {
		except = append(except, c.cfg.Topo.CacheNode(k))
	}
	for j := 0; j < c.cfg.Topo.Modules; j++ {
		if j != c.cfg.Module {
			except = append(except, c.cfg.Topo.CtrlNode(j))
		}
	}
	for d := 0; d < c.cfg.Topo.DMA; d++ {
		except = append(except, c.cfg.Topo.DMANode(d))
	}
	c.exceptScratch = except
	return except
}

// Translation-buffer helpers; all are no-ops when the buffer is disabled.

func (c *Controller) tbLookup(a addr.Block) ([]int, bool) {
	if c.tb == nil {
		return nil, false
	}
	owners, ok := c.tb.Lookup(a)
	if ok {
		c.stats.TBHits.Inc()
	} else {
		c.stats.TBMisses.Inc()
	}
	return owners, ok
}

func (c *Controller) tbRecord(a addr.Block, owners []int) {
	if c.tb != nil {
		c.tb.Record(a, owners)
	}
}

func (c *Controller) tbAddOwner(a addr.Block, k int) {
	if c.tb != nil {
		c.tb.AddOwner(a, k)
	}
}

func (c *Controller) tbRemoveOwner(a addr.Block, k int) {
	if c.tb != nil {
		c.tb.RemoveOwner(a, k)
	}
}

func (c *Controller) tbDrop(a addr.Block) {
	if c.tb != nil {
		c.tb.Drop(a)
	}
}

func containsOwner(owners []int, k int) bool {
	for _, o := range owners {
		if o == k {
			return true
		}
	}
	return false
}
