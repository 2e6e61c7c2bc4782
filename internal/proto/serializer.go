package proto

import (
	"fmt"
	"slices"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
)

// ConcurrencyMode selects between the two controller designs of §3.2.5.
type ConcurrencyMode uint8

const (
	// PerBlock lets the controller service commands for distinct blocks
	// simultaneously, serializing only commands for the same block (the
	// paper's "slightly more complex design").
	PerBlock ConcurrencyMode = iota
	// SingleCommand services one command at a time for the whole
	// controller (the paper's "too stringent" option, kept for the
	// performance ablation it invites).
	SingleCommand
)

// String names the mode.
func (m ConcurrencyMode) String() string {
	switch m {
	case PerBlock:
		return "per-block"
	case SingleCommand:
		return "single-command"
	}
	return fmt.Sprintf("ConcurrencyMode(%d)", uint8(m))
}

// Pending is a command awaiting or undergoing service.
type Pending struct {
	Src network.NodeID
	M   msg.Message
}

// StartFunc begins servicing a command. The implementation must call
// Serializer.Done(block) exactly once when the transaction completes.
type StartFunc func(p Pending)

// Serializer is the controller's command queue: the bit-map controller of
// §3.2.5 services one request per block (or one per controller) at a time,
// queueing the rest, with the ability to delete queued entries — the
// mechanism the paper uses to resolve racing MREQUESTs.
type Serializer struct {
	mode  ConcurrencyMode
	start StartFunc
	space addr.Space

	busy   []bool    // by local block: a transaction is active (PerBlock)
	queue  []Pending // every queued command, in arrival order
	active int       // active transactions (0 or 1 in SingleCommand)

	ready       []Pending
	dispatching bool
}

// NewSerializer returns a serializer in the given mode for the blocks of
// module module of space. start must be non-nil.
func NewSerializer(mode ConcurrencyMode, space addr.Space, module int, start StartFunc) *Serializer {
	if start == nil {
		panic("proto: nil StartFunc")
	}
	return &Serializer{
		mode:  mode,
		start: start,
		space: space,
		busy:  make([]bool, space.BlocksInModule(module)),
	}
}

// Reset empties the serializer and switches it to mode, reusing its
// slices. The StartFunc stays bound — it is a method value on the owning
// controller, which outlives the reset.
func (s *Serializer) Reset(mode ConcurrencyMode) {
	s.mode = mode
	clear(s.busy)
	s.queue = s.queue[:0]
	s.active = 0
	s.ready = s.ready[:0]
	s.dispatching = false
}

// QueuedLen returns the number of queued (not yet started) commands.
func (s *Serializer) QueuedLen() int { return len(s.queue) }

// Active reports whether a transaction is in progress for block b.
func (s *Serializer) Active(b addr.Block) bool {
	if s.mode == SingleCommand {
		return s.active > 0
	}
	return s.busy[s.space.LocalIndex(b)]
}

// ActiveCount returns the number of in-progress transactions.
func (s *Serializer) ActiveCount() int { return s.active }

// Submit offers a command for service: it starts immediately if its block
// (or the controller, in SingleCommand mode) is free, otherwise it queues.
func (s *Serializer) Submit(p Pending) {
	if s.Active(p.M.Block) {
		s.queue = append(s.queue, p)
	} else {
		s.admit(p)
	}
	s.dispatch()
}

func (s *Serializer) admit(p Pending) {
	s.active++
	s.busy[s.space.LocalIndex(p.M.Block)] = true
	s.ready = append(s.ready, p)
}

// Done marks the transaction on block b complete and starts the next
// eligible queued command, if any: the oldest queued command in
// SingleCommand mode, the oldest for b in PerBlock mode.
func (s *Serializer) Done(b addr.Block) {
	if !s.Active(b) {
		panic(fmt.Sprintf("proto: Done(%v) without active transaction", b))
	}
	s.active--
	s.busy[s.space.LocalIndex(b)] = false
	for i, p := range s.queue {
		if s.mode == SingleCommand || p.M.Block == b {
			s.queue = slices.Delete(s.queue, i, i+1)
			s.admit(p)
			break
		}
	}
	s.dispatch()
}

// DeleteQueued removes queued (not yet started) commands on block b for
// which match returns true, returning how many were removed. This is the
// §3.2.5 "Deletes MREQUEST(j,a) from the queue" operation.
func (s *Serializer) DeleteQueued(b addr.Block, match func(Pending) bool) int {
	n := len(s.queue)
	s.queue = slices.DeleteFunc(s.queue, func(p Pending) bool {
		return p.M.Block == b && match(p)
	})
	return n - len(s.queue)
}

// dispatch runs ready transactions iteratively, so a StartFunc that
// completes synchronously (calling Done, which may ready more work) cannot
// recurse arbitrarily deep. The queue is consumed by index, not by
// re-slicing the head away: a start that readies more work appends
// behind the cursor, and truncating to [:0] at the end keeps the
// backing array — the hot path admits millions of commands per
// campaign and must not reallocate the ready queue for each.
func (s *Serializer) dispatch() {
	if s.dispatching {
		return
	}
	s.dispatching = true
	for i := 0; i < len(s.ready); i++ {
		s.start(s.ready[i])
	}
	s.ready = s.ready[:0]
	s.dispatching = false
}
