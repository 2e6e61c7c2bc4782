package proto

import (
	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
)

// AgentSnapshot is the observable in-flight state of a CacheAgent, for
// the model checker's state fingerprints (internal/mcheck). It captures
// exactly the fields that determine the agent's future behavior at a
// drained instant: whether a reference is outstanding, what it is, and
// which reply the agent is parked on. Timing fields (issuedAt) are
// deliberately excluded — they never influence which transitions are
// enabled, only when they fire, and including them would keep the
// reachable state graph from closing.
type AgentSnapshot struct {
	// Busy mirrors Busy(): a processor reference is outstanding.
	Busy bool
	// Block and Write describe the outstanding reference.
	Block addr.Block
	Write bool
	// WriteVersion is the version the outstanding write will install.
	WriteVersion uint64
	// AwaitingGrant is true while an MREQUEST is outstanding (the agent
	// is parked on MGRANTED); false while parked on a get.
	AwaitingGrant bool
}

// Snapshot returns the agent's observable in-flight state.
func (a *CacheAgent) Snapshot() AgentSnapshot {
	if !a.pendActive {
		return AgentSnapshot{}
	}
	return AgentSnapshot{
		Busy:          true,
		Block:         a.pend.ref.Block,
		Write:         a.pend.ref.Write,
		WriteVersion:  a.pend.writeVersion,
		AwaitingGrant: a.pend.phase == pendAwaitMGrant,
	}
}

// BlockSnapshot is a directory controller's observable state for one
// block, for the model checker's fingerprints (internal/mcheck).
// Together with the cache frames and the in-flight messages it
// determines the controller's future behavior at a drained instant: a
// parked transaction's continuation is a closure, but which closure is
// fully determined by (ActiveCmd, directory state, which park slot holds
// it) — only the active command mutates its block's directory state, so
// the state cannot have changed since the closure was built.
type BlockSnapshot struct {
	// State is the two-bit directory state, or an exact directory's
	// two-bit projection; Holders (presence bitmask) and Modified (the m
	// bit) are an exact directory's tag, zero for the two-bit scheme.
	State    directory.State
	Holders  uint64
	Modified bool
	Mem      uint64 // main memory's stored version
	// Active is true while a transaction on this block is being serviced;
	// ActiveCmd is the command it services.
	Active    bool
	ActiveCmd msg.Message
	// Waiting is true while the active transaction is parked on a data
	// continuation (a query answer or an eviction write-back), AwaitingAck
	// while an MREQUEST grant awaits its MACK.
	Waiting     bool
	AwaitingAck bool
	// Stashed lists puts that arrived before their transaction started,
	// in arrival order; Queued the commands queued behind the active
	// transaction, in service order.
	Stashed []StashedPut
	Queued  []msg.Message
}

// BlockSnapshot returns block b's snapshot; an exact directory adds its
// Holders and Modified fields.
func (d *DirController) BlockSnapshot(b addr.Block) BlockSnapshot {
	s := BlockSnapshot{State: d.pol.State(b), Mem: d.Mem.Read(b)}
	if t := d.Txns.Get(b); t != nil {
		s.Active = t.Active
		s.ActiveCmd = t.Cmd
		s.Waiting = t.OnData != nil
		s.AwaitingAck = t.OnAck != nil
		s.Stashed = append(s.Stashed, t.Stashed...)
	}
	for _, p := range d.ser.queue {
		if p.M.Block == b {
			s.Queued = append(s.Queued, p.M)
		}
	}
	return s
}
