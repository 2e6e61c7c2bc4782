package proto

import (
	"fmt"
	"strings"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/sim"
)

// stubCtrl is the smallest directory policy on the skeleton: every
// command waits for a put on its block, records it and completes.
type stubCtrl struct {
	DirController
	got     []StashedPut
	evicted []int // caches reported through Evicted
}

func (s *stubCtrl) ReadMiss(p Pending)  { s.service(p) }
func (s *stubCtrl) WriteMiss(p Pending) { s.service(p) }
func (s *stubCtrl) Eject(p Pending)     { s.service(p) }
func (s *stubCtrl) MRequest(Pending)    { panic("stub: MREQUEST") }
func (s *stubCtrl) DMARead(Pending)     { panic("stub: DMA") }
func (s *stubCtrl) DMAWrite(Pending)    { panic("stub: DMA") }

func (s *stubCtrl) Evicted(_ addr.Block, k int)      { s.evicted = append(s.evicted, k) }
func (s *stubCtrl) State(addr.Block) directory.State { return directory.Absent }

func (s *stubCtrl) service(p Pending) {
	a := p.M.Block
	s.Await(a, func(cache int, data uint64) {
		s.got = append(s.got, StashedPut{Cache: cache, Data: data})
		s.Done(a)
	})
}

type dirRig struct {
	kernel *sim.Kernel
	topo   Topology
	ctrl   *stubCtrl
}

func newDirRig(t *testing.T) *dirRig {
	t.Helper()
	r := &dirRig{kernel: &sim.Kernel{}, topo: Topology{Caches: 2, Modules: 1}}
	space := addr.Space{Blocks: 8, Modules: 1}
	r.ctrl = &stubCtrl{}
	r.ctrl.Init(DirConfig{Topo: r.topo, Space: space, Service: 2}, r.kernel,
		network.NewCrossbar(r.kernel, 1), memory.NewModule(space, 0, 5), r.ctrl)
	return r
}

// command delivers m from its cache to the controller and drains the
// kernel.
func (r *dirRig) command(m msg.Message) {
	r.ctrl.Deliver(r.topo.CacheNode(m.Cache), m)
	r.kernel.Run()
}

var (
	writeReq   = msg.Message{Kind: msg.KindRequest, Block: 3, Cache: 0, RW: msg.Write}
	writeEject = msg.Message{Kind: msg.KindEject, Block: 3, Cache: 1, RW: msg.Write}
)

func TestDirControllerEarlyPutIsStashedForAwait(t *testing.T) {
	r := newDirRig(t)
	r.command(msg.Message{Kind: msg.KindPut, Block: 3, Cache: 1, Data: 7})
	if s := r.ctrl.BlockSnapshot(3); len(s.Stashed) != 1 || s.Active {
		t.Fatalf("early put not stashed: %+v", s)
	}
	r.command(writeEject)
	if want := []StashedPut{{Cache: 1, Data: 7}}; fmt.Sprint(r.ctrl.got) != fmt.Sprint(want) {
		t.Fatalf("continuation got %v, want %v", r.ctrl.got, want)
	}
	if s := r.ctrl.BlockSnapshot(3); len(s.Stashed) != 0 || s.Active || s.Waiting {
		t.Fatalf("stash not consumed or transaction still open: %+v", s)
	}
	if !r.ctrl.Quiescent() {
		t.Fatal("controller not quiescent after the transaction completed")
	}
}

func TestDirControllerPutDeletesQueuedEject(t *testing.T) {
	r := newDirRig(t)
	r.command(writeReq)
	r.command(writeEject)
	if s := r.ctrl.BlockSnapshot(3); !s.Waiting || len(s.Queued) != 1 {
		t.Fatalf("want the request parked and the eject queued: %+v", s)
	}
	r.ctrl.Put(msg.Message{Kind: msg.KindPut, Block: 3, Cache: 1, Data: 9})
	if s := r.ctrl.BlockSnapshot(3); len(s.Queued) != 0 || s.Waiting {
		t.Fatalf("subsumed EJECT still queued or waiter still parked: %+v", s)
	}
	if fmt.Sprint(r.ctrl.evicted) != "[1]" {
		t.Fatalf("Evicted reported %v, want cache 1's eviction", r.ctrl.evicted)
	}
	r.kernel.Run()
	if len(r.ctrl.got) != 1 || !r.ctrl.Quiescent() {
		t.Fatalf("got %v, quiescent=%v: the deleted EJECT must not be serviced", r.ctrl.got, r.ctrl.Quiescent())
	}
}

func TestDirControllerSecondAwaitPanics(t *testing.T) {
	r := newDirRig(t)
	r.command(writeReq)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "two waiters") {
			t.Fatalf("second Await: recovered %v, want a two-waiters panic", p)
		}
	}()
	r.ctrl.Await(3, func(int, uint64) {})
}

func TestDirControllerNotQuiescentWhileParked(t *testing.T) {
	r := newDirRig(t)
	if !r.ctrl.Quiescent() {
		t.Fatal("fresh controller not quiescent")
	}
	r.command(writeReq)
	if r.ctrl.Quiescent() {
		t.Fatal("quiescent while a transaction is parked on a put")
	}
	r.command(msg.Message{Kind: msg.KindPut, Block: 3, Cache: 1, Data: 5})
	if !r.ctrl.Quiescent() {
		t.Fatal("not quiescent after the put completed the transaction")
	}
}
