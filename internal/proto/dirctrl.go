package proto

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/sim"
)

// DirConfig is what the skeleton needs of a directory controller's
// configuration. Service is the controller occupancy charged before each
// command is serviced; a nil Obs costs one nil check per hook.
type DirConfig struct {
	Module  int
	Topo    Topology
	Space   addr.Space
	Mode    ConcurrencyMode
	Service sim.Time
	Obs     *obs.Recorder
}

// Policy is a directory protocol's decisions. The controller embedding
// the skeleton implements it, so binding it allocates nothing.
type Policy interface {
	// Deliver receives the controller's messages: the skeleton's own,
	// promoted, or the protocol's arrival rules in front of it.
	network.Handler
	// ReadMiss, WriteMiss, MRequest, Eject, DMARead and DMAWrite each
	// service one admitted command of their kind, already counted; the
	// call is the only indirect one per command. A protocol refuses a
	// kind it does not accept by panicking.
	ReadMiss(p Pending)
	WriteMiss(p Pending)
	MRequest(p Pending)
	Eject(p Pending)
	DMARead(p Pending)
	DMAWrite(p Pending)
	// Evicted learns that cache k no longer holds block a: its eviction
	// write-back answered the active transaction instead of a PURGE.
	Evicted(a addr.Block, k int)
	// State is block a's two-bit directory state, or an exact
	// directory's projection onto it, for Before, Moved and
	// BlockSnapshot.
	State(a addr.Block) directory.State
}

// DirController is the §3.2 controller skeleton every directory protocol
// embeds: serialize per block, service, wait for a put or a MACK, finish.
// It owns the memory module, the Serializer, the CallQueue, the
// transaction table, the statistics, message routing (Deliver) and every
// controller-side obs hook. The protocol supplies its Policy and, where
// it has them, its own arrival rules in a Deliver of its own.
type DirController struct {
	Kernel *sim.Kernel
	Mem    *memory.Module
	// Txns holds each block's open transaction: when its command began,
	// the continuation it is parked on and puts that arrived early.
	Txns  *Txns
	Stats CtrlStats
	// Sp is the span recorder (nil when spans are off) for the policy's
	// own phase marks.
	Sp *obs.SpanRecorder

	cfg   DirConfig
	net   network.Network
	ser   *Serializer
	calls *CallQueue
	pol   Policy

	exceptScratch []network.NodeID // Broadcast's reusable exclusion list

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
}

// txnNames holds the static async-span name per command kind
// ("txn Request", ...), precomputed so begin never builds strings.
var txnNames [256]string

func init() {
	for k := range txnNames {
		txnNames[k] = "txn " + msg.Kind(k).String()
	}
}

// Init sets up the skeleton in place and attaches pol, the embedding
// controller, as the node of cfg.Module.
func (d *DirController) Init(cfg DirConfig, kernel *sim.Kernel, net network.Network, mem *memory.Module, pol Policy) {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Space.Validate(); err != nil {
		panic(err)
	}
	*d = DirController{
		Kernel: kernel,
		Mem:    mem,
		Txns:   NewTxns(cfg.Space, cfg.Module),
		cfg:    cfg,
		net:    net,
		pol:    pol,
		comp:   obs.NoComponent,
	}
	if r := cfg.Obs; r != nil {
		d.rec = r
		prefix := fmt.Sprintf("ctrl%d", cfg.Module)
		d.comp = r.Component(prefix)
		d.obsQueue = r.Histogram(prefix+"/queue_depth", 1)
		d.obsTxn = r.Histogram(prefix+"/txn_cycles", 16)
		d.obsBroadcasts = r.Counter(prefix + "/broadcasts")
		for s := range d.obsStateTo {
			d.obsStateTo[s] = r.Counter(prefix + "/" + obs.DirStateCounterSuffix[s])
		}
		if ts := r.Windows(); ts != nil {
			d.tsQueue = ts.Series(prefix+"/queue_depth", obs.SeriesMax)
			for s := range d.tsCensus {
				d.tsCensus[s] = ts.Series(obs.DirStateSeriesNames[s], obs.SeriesGauge)
			}
			// Every block this module owns starts Absent.
			d.tsCensus[directory.Absent].GaugeAdd(int64(cfg.Space.BlocksInModule(cfg.Module)))
		}
	}
	d.Sp = cfg.Obs.Spans()
	d.ser = NewSerializer(cfg.Mode, cfg.Space, cfg.Module, d.begin)
	d.calls = NewCallQueue(kernel, d)
	net.Attach(d.Node(), pol)
}

// Reset restores the skeleton to its freshly-initialized state under
// cfg, keeping the network attachment and the serializer, call-queue and
// transaction-table storage. Module, Topo and Space are machine shape
// and must match construction. Pooled machines run uninstrumented, so
// cfg.Obs must be nil; instrumented configs rebuild the machine instead.
func (d *DirController) Reset(cfg DirConfig) {
	if cfg.Obs != nil {
		panic("proto: controller Reset with Obs set — rebuild instead")
	}
	if cfg.Module != d.cfg.Module || cfg.Topo != d.cfg.Topo || cfg.Space != d.cfg.Space {
		panic("proto: controller Reset shape differs from construction")
	}
	d.cfg = cfg
	d.ser.Reset(cfg.Mode)
	d.calls.Reset()
	d.Stats = CtrlStats{}
	d.Txns.Reset()
}

// CtrlStats implements MemSide.
func (d *DirController) CtrlStats() *CtrlStats { return &d.Stats }

// MemVersion returns main memory's stored version of b, for invariants.
func (d *DirController) MemVersion(b addr.Block) uint64 { return d.Mem.Read(b) }

// Quiescent reports whether no transaction is active, queued or parked.
func (d *DirController) Quiescent() bool {
	return d.ser.ActiveCount() == 0 && d.ser.QueuedLen() == 0 && !d.Txns.Parked()
}

// Node returns the controller's network node.
func (d *DirController) Node() network.NodeID { return d.cfg.Topo.CtrlNode(d.cfg.Module) }

// Local returns b's index among the blocks of this controller's module.
func (d *DirController) Local(b addr.Block) int { return d.cfg.Space.LocalIndex(b) }

// Send sends m from the controller to dst.
func (d *DirController) Send(dst network.NodeID, m msg.Message) { d.net.Send(d.Node(), dst, m) }

// SendGet sends get(k,a) carrying data; exclusive marks a Yen–Fu
// exclusive grant.
func (d *DirController) SendGet(k int, a addr.Block, data uint64, exclusive bool) {
	d.Send(d.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindGet, Block: a, Cache: k, Data: data, Ok: exclusive})
}

// Directed sends coherence command m to cache k alone — a command the
// directory could aim because it knows the holder — and counts it.
func (d *DirController) Directed(k int, m msg.Message) {
	d.Stats.DirectedSends.Inc()
	d.Send(d.cfg.Topo.CacheNode(k), m)
}

// Grant answers cache k's MREQUEST for a with MGRANTED(k,ok).
func (d *DirController) Grant(k int, a addr.Block, ok bool) {
	d.Send(d.cfg.Topo.CacheNode(k), msg.Message{Kind: msg.KindMGranted, Block: a, Cache: k, Ok: ok})
}

// Deny refuses cache k's MREQUEST for a and counts the denial.
func (d *DirController) Deny(k int, a addr.Block) {
	d.Stats.MGrantDenied.Inc()
	d.Grant(k, a, false)
}

// DenyOnArrival refuses MREQUEST m without queueing it. The requester's
// transit ends here exactly as if m had been submitted.
func (d *DirController) DenyOnArrival(m msg.Message) {
	d.Sp.Mark(m.Cache, obs.PhaseReqTransit)
	d.Deny(m.Cache, m.Block)
}

// Broadcast sends m to every cache except k (none when k < 0) and counts
// the broadcast. Controllers and DMA devices are excluded: a directory's
// broadcasts address caches only.
func (d *DirController) Broadcast(k int, m msg.Message) {
	d.Stats.Broadcasts.Inc()
	d.obsBroadcasts.Inc()
	except := d.exceptScratch[:0]
	if k >= 0 {
		except = append(except, d.cfg.Topo.CacheNode(k))
	}
	for j := 0; j < d.cfg.Topo.Modules; j++ {
		if j != d.cfg.Module {
			except = append(except, d.cfg.Topo.CtrlNode(j))
		}
	}
	for x := 0; x < d.cfg.Topo.DMA; x++ {
		except = append(except, d.cfg.Topo.DMANode(x))
	}
	d.exceptScratch = except
	d.net.Broadcast(d.Node(), m, except...)
}

// Submit offers command m from src for service and records the queue
// depth it leaves behind. A REQUEST's or MREQUEST's transit ends here.
func (d *DirController) Submit(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindRequest || m.Kind == msg.KindMRequest {
		d.Sp.Mark(m.Cache, obs.PhaseReqTransit)
	}
	d.ser.Submit(Pending{Src: src, M: m})
	depth := d.ser.QueuedLen()
	d.Stats.NoteQueue(depth)
	d.obsQueue.Observe(uint64(depth))
	d.tsQueue.Observe(uint64(depth))
}

// Deliver implements network.Handler: commands are submitted, puts
// routed (Put) and MACKs ignored — an exact directory grants only
// provably safe MREQUESTs (a recorded holder has no INV in flight), so
// the shared cache agent's confirmation carries no news. A policy with
// arrival rules of its own handles those kinds first.
func (d *DirController) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest, msg.KindEject, msg.KindMRequest,
		msg.KindUncachedRead, msg.KindUncachedWrite:
		d.Submit(src, m)
	case msg.KindPut:
		d.Put(m)
	case msg.KindMAck:
	default:
		panic(fmt.Sprintf("proto: controller %d: unexpected %v", d.cfg.Module, m))
	}
}

// Put routes a data transfer. With no transaction waiting on its block
// the put is stashed. Otherwise the waiting continuation runs now; a
// queued EJECT("write") from the put's sender — an eviction whose
// write-back the active transaction subsumes — is deleted first, and
// the policy told (Evicted).
func (d *DirController) Put(m msg.Message) {
	onData := d.Txns.TakeData(m.Block)
	if onData == nil {
		d.Txns.Stash(m.Block, m.Cache, m.Data)
		return
	}
	if d.deleteEject(m.Block, m.Cache) > 0 {
		d.pol.Evicted(m.Block, m.Cache)
	}
	onData(m.Cache, m.Data)
}

func (d *DirController) deleteEject(a addr.Block, k int) int {
	return d.ser.DeleteQueued(a, func(p Pending) bool {
		return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == k
	})
}

// UseStash hands block a's oldest stashed put — an owner's eviction that
// already delivered the data — to onData on a zero-delay event, deletes
// its queued EJECT("write") and returns its sender; ok is false if none.
func (d *DirController) UseStash(a addr.Block, onData func(cache int, data uint64)) (sender int, ok bool) {
	put, ok := d.Txns.PopStash(a)
	if !ok {
		return -1, false
	}
	d.deleteEject(a, put.Cache)
	d.calls.Data(0, onData, put.Cache, put.Data)
	return put.Cache, true
}

// Purge retrieves block a's data from owner, the holder the directory
// knows: a racing eviction's stashed put if one arrived (see UseStash;
// the policy is told its sender's copy is gone), else the answer to a
// directed PURGE(a,owner,rw).
func (d *DirController) Purge(a addr.Block, rw msg.RW, owner int, onData func(cache int, data uint64)) {
	if k, ok := d.UseStash(a, onData); ok {
		d.pol.Evicted(a, k)
		return
	}
	d.Directed(owner, msg.Message{Kind: msg.KindPurge, Block: a, Cache: owner, RW: rw})
	d.Await(a, onData)
}

// Await registers the active transaction's data continuation on block a,
// consuming a stashed put if one is already buffered.
func (d *DirController) Await(a addr.Block, onData func(cache int, data uint64)) {
	if put, ok := d.Txns.PopStash(a); ok {
		d.calls.Data(0, onData, put.Cache, put.Data)
		return
	}
	d.Park(a, onData)
}

// Park registers the active transaction's data continuation on block a
// without looking at the stash.
func (d *DirController) Park(a addr.Block, onData func(cache int, data uint64)) {
	if !d.Txns.Await(a, onData) {
		panic(fmt.Sprintf("proto: controller %d: two waiters for %v", d.cfg.Module, a))
	}
}

// DeleteRacingMRequests implements §3.2.5 "deletes MREQUEST(j,a) from
// the queue": once block a's other copies are being invalidated, queued
// MREQUESTs from caches other than k are moot — their senders convert
// on the invalidation themselves.
func (d *DirController) DeleteRacingMRequests(a addr.Block, k int) {
	if n := d.ser.DeleteQueued(a, func(p Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != k
	}); n > 0 {
		d.Stats.DeletedMRequests.Add(uint64(n))
	}
}

// Before samples block a's two-bit state (Policy.State) ahead of a
// directory update, for Moved to compare against. Uninstrumented,
// neither computes it: an exact directory's projection is not free.
func (d *DirController) Before(a addr.Block) directory.State {
	if d.rec == nil {
		return directory.Absent
	}
	return d.pol.State(a)
}

// Moved records block a's two-bit state moving from pre, if it did: the
// dir_to_* counter, the census gauges and a trace instant.
// Uninstrumented, it is one nil check.
func (d *DirController) Moved(a addr.Block, pre directory.State) {
	if d.rec == nil {
		return
	}
	now := d.pol.State(a)
	if now == pre {
		return
	}
	d.obsStateTo[now].Inc()
	d.tsCensus[pre].GaugeAdd(-1)
	d.tsCensus[now].GaugeAdd(1)
	d.rec.Emit(d.comp, obs.DirStateEventNames[now], int64(a), int64(pre))
}

// begin starts servicing one command after the controller service time.
func (d *DirController) begin(p Pending) {
	d.Txns.Begin(p.M.Block, d.Kernel.Now(), p.M)
	if d.rec != nil {
		d.rec.AsyncBegin(d.comp, txnNames[p.M.Kind], int64(p.M.Block))
	}
	d.calls.Service(d.cfg.Service, p)
}

// serve runs when a command's service time has elapsed: a REQUEST's or
// MREQUEST's queueing ends, the command is counted, and the policy
// takes over.
func (d *DirController) serve(p Pending) {
	switch p.M.Kind {
	case msg.KindRequest:
		d.Stats.Requests.Inc()
		d.Sp.Mark(p.M.Cache, obs.PhaseQueue)
		if p.M.RW == msg.Read {
			d.Stats.ReadMisses.Inc()
			d.pol.ReadMiss(p)
		} else {
			d.Stats.WriteMisses.Inc()
			d.pol.WriteMiss(p)
		}
	case msg.KindMRequest:
		d.Sp.Mark(p.M.Cache, obs.PhaseQueue)
		d.Stats.MRequests.Inc()
		d.pol.MRequest(p)
	case msg.KindEject:
		d.Stats.Ejects.Inc()
		d.pol.Eject(p)
	case msg.KindUncachedRead:
		d.Stats.DMAReads.Inc()
		d.pol.DMARead(p)
	case msg.KindUncachedWrite:
		d.Stats.DMAWrites.Inc()
		d.pol.DMAWrite(p)
	default:
		panic(fmt.Sprintf("proto: controller %d: cannot service %v", d.cfg.Module, p.M))
	}
}

// Done completes the active transaction on block a.
func (d *DirController) Done(a addr.Block) {
	if since, cmd, ok := d.Txns.End(a); ok {
		busy := uint64(d.Kernel.Now() - since)
		d.Stats.BusyCycles.Add(busy)
		d.obsTxn.Observe(busy)
		if d.rec != nil {
			d.rec.AsyncEnd(d.comp, txnNames[cmd.Kind], int64(a))
		}
	}
	d.ser.Done(a)
}
