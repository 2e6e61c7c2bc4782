package proto

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/msg"
)

// TestTxnsRecordLifetime pins when a block's record exists: from the
// first thing opened on it until it holds nothing — an early put outlives
// the transaction that was active when it arrived — and a freed record
// is reused for another block without carrying anything over.
func TestTxnsRecordLifetime(t *testing.T) {
	space := addr.Space{Blocks: 16, Modules: 2}
	tx := NewTxns(space, 1) // odd blocks
	cmd := msg.Message{Kind: msg.KindRequest, Block: 3, Cache: 2}

	tx.Begin(3, 10, cmd)
	tx.Stash(3, 1, 42)
	if since, got, ok := tx.End(3); !ok || since != 10 || got != cmd {
		t.Fatalf("End = %d, %v, %v; want 10, %v, true", since, got, ok, cmd)
	}
	if _, _, ok := tx.End(3); ok {
		t.Fatal("End succeeded twice")
	}
	r := tx.Get(3)
	if r == nil || r.Active || len(r.Stashed) != 1 {
		t.Fatalf("record after End = %+v; want the stashed put kept", r)
	}
	if put, ok := tx.PopStash(3); !ok || put != (StashedPut{Cache: 1, Data: 42}) {
		t.Fatalf("PopStash = %+v, %v", put, ok)
	}
	if tx.Get(3) != nil {
		t.Fatal("empty record not recycled")
	}

	if !tx.Await(5, func(int, uint64) {}) || tx.Await(5, func(int, uint64) {}) {
		t.Fatal("Await must park once and refuse a second waiter")
	}
	tx.AwaitAck(7, func(bool) {})
	if !tx.Parked() {
		t.Fatal("parked continuations not reported")
	}
	if r := tx.Get(5); r.Block != 5 || r.Active || len(r.Stashed) != 0 {
		t.Fatalf("reused record carries old state: %+v", r)
	}
	if tx.TakeData(5) == nil || tx.TakeData(5) != nil || tx.TakeAck(7) == nil {
		t.Fatal("continuations not taken exactly once")
	}
	if tx.Parked() || tx.Get(5) != nil || tx.Get(7) != nil {
		t.Fatal("taken continuations left records behind")
	}

	tx.Stash(9, 0, 1)
	tx.Begin(11, 3, cmd)
	tx.Reset()
	if tx.Get(9) != nil || tx.Get(11) != nil || tx.Parked() {
		t.Fatal("Reset left records")
	}
}
