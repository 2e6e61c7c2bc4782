package proto

import (
	"twobit/internal/sim"
)

// call tags select what a pooled record runs; they travel in the event's
// second packed argument.
const (
	callService = iota // serve(p) — one per command the controller admits
	callData           // onData(cache, data) — a buffered put handed to a waiter
)

// CallQueue schedules a controller's deferred continuations through the
// kernel's pooled event form. The two shapes every directory controller
// defers on its hot path — "start servicing command p after the service
// latency" and "hand this buffered put to the waiting transaction" — are
// stored in a free-list slab instead of being captured in a fresh
// closure per event, so admitting a command costs no allocation once the
// slab has grown to the controller's concurrency high-water mark.
type CallQueue struct {
	kernel *sim.Kernel
	ctrl   *DirController
	recs   []callRec
	free   int32 // first free slab record, -1 when none
}

type callRec struct {
	p      Pending
	onData func(cache int, data uint64)
	cache  int
	data   uint64
	next   int32 // free-list link, meaningful only while free
}

// NewCallQueue returns a queue scheduling on k whose service records
// run ctrl's service step.
func NewCallQueue(k *sim.Kernel, ctrl *DirController) *CallQueue {
	return &CallQueue{kernel: k, ctrl: ctrl, free: -1}
}

// Reset discards all slab records, retaining capacity. The owning
// controller resets only between runs, when the kernel queue is drained,
// so no scheduled event can still index a discarded record.
func (q *CallQueue) Reset() {
	clear(q.recs)
	q.recs = q.recs[:0]
	q.free = -1
}

func (q *CallQueue) alloc() int32 {
	idx := q.free
	if idx < 0 {
		q.recs = append(q.recs, callRec{})
		return int32(len(q.recs) - 1)
	}
	q.free = q.recs[idx].next
	return idx
}

// Service schedules the controller's service of p d cycles from now.
func (q *CallQueue) Service(d sim.Time, p Pending) {
	idx := q.alloc()
	q.recs[idx] = callRec{p: p}
	q.kernel.AfterCall(d, q, uint64(idx), callService)
}

// Data schedules onData(cache, data) d cycles from now. onData is a
// continuation the controller already holds (typically from its waiting
// table), so no new closure is created.
func (q *CallQueue) Data(d sim.Time, onData func(cache int, data uint64), cache int, data uint64) {
	idx := q.alloc()
	q.recs[idx] = callRec{onData: onData, cache: cache, data: data}
	q.kernel.AfterCall(d, q, uint64(idx), callData)
}

// Call implements sim.Caller: it runs the record a0 indexes and recycles
// it. The record is copied out before the slot rejoins the free list, so
// a continuation that schedules further calls sees a consistent slab.
func (q *CallQueue) Call(a0, a1 uint64) {
	r := q.recs[a0]
	q.recs[a0] = callRec{next: q.free}
	q.free = int32(a0)
	switch a1 {
	case callService:
		q.ctrl.serve(r.p)
	default:
		r.onData(r.cache, r.data)
	}
}
