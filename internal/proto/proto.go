// Package proto is the framework shared by the coherence protocol
// implementations: the node-id topology of Figure 3-1, the latency model,
// the CacheSide/MemSide interfaces the system harness wires together, the
// per-block transaction serializer of §3.2.5, and the cache-side agent
// common to the directory schemes.
package proto

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/sim"
	"twobit/internal/stats"
)

// Topology maps component indices to network node ids. Caches occupy ids
// [0, Caches); memory controllers occupy [Caches, Caches+Modules); DMA
// devices, when present, occupy [Caches+Modules, Caches+Modules+DMA).
type Topology struct {
	Caches  int // number of processor-cache pairs (n)
	Modules int // number of memory modules / controllers
	DMA     int // number of uncached I/O (DMA) devices
}

// Validate reports an error for unusable topologies.
func (t Topology) Validate() error {
	if t.Caches < 1 {
		return fmt.Errorf("proto: need at least one cache, got %d", t.Caches)
	}
	if t.Modules < 1 {
		return fmt.Errorf("proto: need at least one module, got %d", t.Modules)
	}
	if t.DMA < 0 {
		return fmt.Errorf("proto: negative DMA device count %d", t.DMA)
	}
	return nil
}

// Nodes returns the total node count.
func (t Topology) Nodes() int { return t.Caches + t.Modules + t.DMA }

// DMANode returns the node id of DMA device d.
func (t Topology) DMANode(d int) network.NodeID {
	if d < 0 || d >= t.DMA {
		panic(fmt.Sprintf("proto: DMA index %d outside [0,%d)", d, t.DMA))
	}
	return network.NodeID(t.Caches + t.Modules + d)
}

// CacheNode returns the node id of cache k.
func (t Topology) CacheNode(k int) network.NodeID {
	if k < 0 || k >= t.Caches {
		panic(fmt.Sprintf("proto: cache index %d outside [0,%d)", k, t.Caches))
	}
	return network.NodeID(k)
}

// CtrlNode returns the node id of memory controller j.
func (t Topology) CtrlNode(j int) network.NodeID {
	if j < 0 || j >= t.Modules {
		panic(fmt.Sprintf("proto: module index %d outside [0,%d)", j, t.Modules))
	}
	return network.NodeID(t.Caches + j)
}

// CtrlFor returns the node id of the controller owning block b.
func (t Topology) CtrlFor(b addr.Block) network.NodeID {
	return t.CtrlNode(b.Module(t.Modules))
}

// CacheIndex inverts CacheNode; ok is false for controller nodes.
func (t Topology) CacheIndex(id network.NodeID) (int, bool) {
	if int(id) >= 0 && int(id) < t.Caches {
		return int(id), true
	}
	return -1, false
}

// Latencies is the timing model. All values are in cycles.
type Latencies struct {
	CacheHit    sim.Time // local cache access (hit or fill completion)
	Memory      sim.Time // memory module read or write
	CtrlService sim.Time // controller occupancy to start servicing a command
}

// DefaultLatencies returns the timing used throughout the experiments:
// 1-cycle caches, 20-cycle memory, 2-cycle controller service. (The 1984
// evaluation abstracts timing away entirely; these values only shape the
// latency-sensitive extensions.)
func DefaultLatencies() Latencies {
	return Latencies{CacheHit: 1, Memory: 20, CtrlService: 2}
}

// CommitFunc is the oracle hook invoked at the instant a store's value
// becomes the block's current value (the store's linearization point).
type CommitFunc func(block addr.Block, version uint64)

// CacheSide is the processor-facing half of a protocol.
type CacheSide interface {
	network.Handler
	// Access services one processor reference. For writes, writeVersion is
	// the version this store produces. done is invoked exactly once when
	// the reference completes; for reads it receives the version observed.
	// At most one reference may be outstanding per cache (the 1984
	// processors block on every memory access).
	Access(ref addr.Ref, writeVersion uint64, done func(readVersion uint64))
	// Store exposes the underlying cache for statistics and invariants.
	Store() *cache.Cache
	// SideStats exposes the protocol-level counters.
	SideStats() *CacheSideStats
}

// MemSide is the memory-controller half of a protocol.
type MemSide interface {
	network.Handler
	CtrlStats() *CtrlStats
}

// CacheSideStats counts protocol events at one cache. CommandsReceived and
// UselessCommands implement the paper's §4 accounting: every external
// command received is potential interference; one whose snoop misses was
// pure two-bit overhead (a full map would not have sent it).
type CacheSideStats struct {
	References           stats.Counter // processor references serviced
	Reads                stats.Counter
	Writes               stats.Counter
	CommandsReceived     stats.Counter // external commands delivered
	UselessCommands      stats.Counter // received commands for absent blocks
	InvalidationsApplied stats.Counter
	QueriesAnswered      stats.Counter // BROADQUERY/PURGE answered with data
	MRequestsSent        stats.Counter
	MRequestsConverted   stats.Counter // BROADINV treated as MGRANTED(·,false)
	Retries              stats.Counter // write requests reissued after denial
	EvictionsClean       stats.Counter
	EvictionsDirty       stats.Counter // evictions requiring write-back
	ExclusiveWrites      stats.Counter // silent Exclusive→Modified upgrades (Yen–Fu)
}

// CtrlStats counts protocol events at one memory controller.
type CtrlStats struct {
	Requests         stats.Counter // REQUEST commands serviced
	ReadMisses       stats.Counter
	WriteMisses      stats.Counter
	MRequests        stats.Counter
	Ejects           stats.Counter
	Broadcasts       stats.Counter // broadcast operations issued
	DirectedSends    stats.Counter // directed commands issued (full map / TB hits)
	DeletedMRequests stats.Counter // §3.2.5 queue deletions
	MGrantDenied     stats.Counter
	TBHits           stats.Counter // translation-buffer hits (§4.4)
	TBMisses         stats.Counter
	DMAReads         stats.Counter // uncached I/O reads serviced
	DMAWrites        stats.Counter // uncached I/O writes serviced
	BusyCycles       stats.Counter // transaction-cycles: summed open-transaction durations
	MaxQueue         int           // high-water mark of queued commands
}

// NoteQueue updates the queue high-water mark.
func (s *CtrlStats) NoteQueue(depth int) {
	if depth > s.MaxQueue {
		s.MaxQueue = depth
	}
}
