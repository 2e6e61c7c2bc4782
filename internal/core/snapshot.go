package core

import (
	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
	"twobit/internal/proto"
)

// BlockSnapshot is the controller's observable state for one block, for
// the model checker's fingerprints (internal/mcheck). Together with the
// cache frames and the in-flight messages it determines the controller's
// future behavior at a drained instant: a parked transaction's
// continuation is a closure, but which closure is fully determined by
// (ActiveCmd, State, which park slot holds it) — only the active command
// mutates its block's directory state, so the state cannot have changed
// since the closure was built.
type BlockSnapshot struct {
	// State is the two-bit directory state.
	State directory.State
	// Mem is main memory's stored version.
	Mem uint64
	// Active is true while a transaction on this block is being serviced;
	// ActiveCmd is the command it services.
	Active    bool
	ActiveCmd msg.Message
	// Waiting is true while the active transaction is parked on a data
	// continuation (a BROADQUERY answer or an eviction write-back).
	Waiting bool
	// AwaitingAck is true while an MREQUEST grant awaits its MACK.
	AwaitingAck bool
	// Stashed lists puts that arrived before their transaction started,
	// in arrival order.
	Stashed []StashedPut
	// Queued lists the commands queued behind the active transaction, in
	// service order.
	Queued []msg.Message
}

// StashedPut is one buffered early put.
type StashedPut = proto.StashedPut

// BlockSnapshot returns the observable controller state for block b.
func (c *Controller) BlockSnapshot(b addr.Block) BlockSnapshot {
	s := BlockSnapshot{
		State: c.State(b),
		Mem:   c.mem.Read(b),
	}
	if t := c.txns.Get(b); t != nil {
		s.Active = t.Active
		s.ActiveCmd = t.Cmd
		s.Waiting = t.OnData != nil
		s.AwaitingAck = t.OnAck != nil
		s.Stashed = append(s.Stashed, t.Stashed...)
	}
	for _, p := range c.ser.QueuedFor(b) {
		s.Queued = append(s.Queued, p.M)
	}
	return s
}
