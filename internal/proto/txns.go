package proto

import (
	"slices"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/sim"
)

// Txns is a directory controller's table of open per-block transaction
// records: when the active command began, the continuation a parked
// transaction waits on, and puts that arrived before the transaction that
// consumes them. Few blocks have a record at any moment, so the records
// sit in a small table reached through a dense slot index per local
// block, and a record is recycled as soon as it holds nothing.
type Txns struct {
	space addr.Space
	slot  []int32 // by local block: 1 + the block's index in recs, 0 if none
	recs  []Txn
	free  []int32 // indices of recycled recs
}

// Txn is one block's open transaction record.
type Txn struct {
	Block  addr.Block
	Active bool        // a command on Block is being serviced
	Since  sim.Time    // when the active command began
	Cmd    msg.Message // the active command
	// OnData continues the active transaction when a put arrives (a query
	// answer or an eviction's write-back).
	OnData func(cache int, data uint64)
	// OnAck continues the active transaction when the granted cache's
	// MACK arrives.
	OnAck func(ok bool)
	// Stashed buffers puts that arrived before the transaction that
	// consumes them, in arrival order.
	Stashed []StashedPut
}

// StashedPut is one buffered early put.
type StashedPut struct {
	Cache int
	Data  uint64
}

// NewTxns returns an empty table for the blocks of module module of
// space.
func NewTxns(space addr.Space, module int) *Txns {
	return &Txns{space: space, slot: make([]int32, space.BlocksInModule(module))}
}

// Reset empties the table, keeping its storage.
func (t *Txns) Reset() {
	clear(t.slot)
	t.free = t.free[:0]
	for i := range t.recs {
		t.recs[i] = Txn{Stashed: t.recs[i].Stashed[:0]}
		t.free = append(t.free, int32(i))
	}
}

// Get returns b's record, or nil when b has none. The pointer is valid
// until the next call that opens a record.
func (t *Txns) Get(b addr.Block) *Txn {
	if i := t.slot[t.space.LocalIndex(b)]; i != 0 {
		return &t.recs[i-1]
	}
	return nil
}

// open returns b's record, creating an empty one if b has none.
func (t *Txns) open(b addr.Block) *Txn {
	li := t.space.LocalIndex(b)
	if i := t.slot[li]; i != 0 {
		return &t.recs[i-1]
	}
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.recs = append(t.recs, Txn{})
		i = int32(len(t.recs) - 1)
	}
	t.slot[li] = i + 1
	r := &t.recs[i]
	r.Block = b
	return r
}

// tidy recycles r if it no longer holds anything.
func (t *Txns) tidy(r *Txn) {
	if r.Active || r.OnData != nil || r.OnAck != nil || len(r.Stashed) > 0 {
		return
	}
	li := t.space.LocalIndex(r.Block)
	t.free = append(t.free, t.slot[li]-1)
	t.slot[li] = 0
	*r = Txn{Stashed: r.Stashed[:0]}
}

// Begin records that cmd, a command on block b, began service at at.
func (t *Txns) Begin(b addr.Block, at sim.Time, cmd msg.Message) {
	r := t.open(b)
	r.Active, r.Since, r.Cmd = true, at, cmd
}

// End closes b's active command and returns when it began and what it
// was; ok is false when b has no active command.
func (t *Txns) End(b addr.Block) (since sim.Time, cmd msg.Message, ok bool) {
	r := t.Get(b)
	if r == nil || !r.Active {
		return 0, msg.Message{}, false
	}
	since, cmd = r.Since, r.Cmd
	r.Active, r.Since, r.Cmd = false, 0, msg.Message{}
	t.tidy(r)
	return since, cmd, true
}

// Stash buffers an early put for block b.
func (t *Txns) Stash(b addr.Block, cache int, data uint64) {
	r := t.open(b)
	r.Stashed = append(r.Stashed, StashedPut{Cache: cache, Data: data})
}

// PopStash removes and returns the oldest put stashed for b.
func (t *Txns) PopStash(b addr.Block) (StashedPut, bool) {
	r := t.Get(b)
	if r == nil || len(r.Stashed) == 0 {
		return StashedPut{}, false
	}
	put := r.Stashed[0]
	r.Stashed = slices.Delete(r.Stashed, 0, 1)
	t.tidy(r)
	return put, true
}

// Await parks b's transaction on onData. It reports false, parking
// nothing, when a continuation is already parked there.
func (t *Txns) Await(b addr.Block, onData func(cache int, data uint64)) bool {
	r := t.open(b)
	if r.OnData != nil {
		return false
	}
	r.OnData = onData
	return true
}

// TakeData removes and returns b's parked data continuation, or nil.
func (t *Txns) TakeData(b addr.Block) func(cache int, data uint64) {
	r := t.Get(b)
	if r == nil || r.OnData == nil {
		return nil
	}
	f := r.OnData
	r.OnData = nil
	t.tidy(r)
	return f
}

// AwaitAck parks b's transaction on the granted cache's MACK.
func (t *Txns) AwaitAck(b addr.Block, onAck func(ok bool)) {
	t.open(b).OnAck = onAck
}

// TakeAck removes and returns b's parked MACK continuation, or nil.
func (t *Txns) TakeAck(b addr.Block) func(ok bool) {
	r := t.Get(b)
	if r == nil || r.OnAck == nil {
		return nil
	}
	f := r.OnAck
	r.OnAck = nil
	t.tidy(r)
	return f
}

// Parked reports whether any transaction waits on a continuation.
func (t *Txns) Parked() bool {
	for i := range t.recs {
		if t.recs[i].OnData != nil || t.recs[i].OnAck != nil {
			return true
		}
	}
	return false
}
