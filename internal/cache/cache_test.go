package cache

import (
	"testing"
	"testing/quick"

	"twobit/internal/addr"
	"twobit/internal/rng"
)

func newTest(sets, assoc int, pol ReplacementPolicy) *Cache {
	return New(Config{Sets: sets, Assoc: assoc, Policy: pol, Seed: 1})
}

func fill(c *Cache, b addr.Block, data uint64) *Frame {
	v := c.Victim(b)
	c.Fill(v, b, data)
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Sets: 0, Assoc: 1}).Validate(); err == nil {
		t.Error("Sets=0 accepted")
	}
	if err := (Config{Sets: 1, Assoc: 0}).Validate(); err == nil {
		t.Error("Assoc=0 accepted")
	}
	if err := (Config{Sets: 4, Assoc: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (Config{Sets: 4, Assoc: 2}).Blocks() != 8 {
		t.Error("Blocks() wrong")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{})
}

func TestFillLookupAccess(t *testing.T) {
	c := newTest(4, 2, LRU)
	if c.Access(12) != nil {
		t.Fatal("access to empty cache hit")
	}
	fill(c, 12, 7)
	f := c.Access(12)
	if f == nil || f.Block != 12 || f.Data != 7 || !f.Valid || f.Modified {
		t.Fatalf("frame after fill = %+v", f)
	}
	if c.Stats().Hits.Value() != 1 || c.Stats().Misses.Value() != 1 {
		t.Fatalf("hit/miss counts = %d/%d", c.Stats().Hits.Value(), c.Stats().Misses.Value())
	}
}

func TestSetMapping(t *testing.T) {
	c := newTest(4, 1, LRU)
	// Blocks 0 and 4 share set 0; filling 4 must evict 0 in a direct-mapped set.
	fill(c, 0, 1)
	fill(c, 4, 2)
	if c.Lookup(0) != nil {
		t.Fatal("block 0 survived conflicting fill in direct-mapped set")
	}
	if c.Lookup(4) == nil {
		t.Fatal("block 4 absent after fill")
	}
	if c.Stats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions.Value())
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := newTest(1, 3, LRU)
	fill(c, 10, 0)
	fill(c, 20, 0)
	fill(c, 30, 0)
	c.Access(10) // 20 is now least recently used
	v := c.Victim(40)
	if v.Block != 20 {
		t.Fatalf("LRU victim = %v, want blk#20", v.Block)
	}
}

func TestFIFOVictimSelection(t *testing.T) {
	c := newTest(1, 3, FIFO)
	fill(c, 10, 0)
	fill(c, 20, 0)
	fill(c, 30, 0)
	c.Access(10) // recency must not matter for FIFO
	v := c.Victim(40)
	if v.Block != 10 {
		t.Fatalf("FIFO victim = %v, want blk#10", v.Block)
	}
}

func TestRandomVictimIsInSet(t *testing.T) {
	c := newTest(2, 4, Random)
	for b := addr.Block(0); b < 8; b++ {
		fill(c, b, 0)
	}
	for i := 0; i < 100; i++ {
		v := c.Victim(2) // set 0 holds even blocks
		if v.Block%2 != 0 {
			t.Fatalf("random victim %v not in set 0", v.Block)
		}
	}
}

func TestInvalidFramePreferredOverEviction(t *testing.T) {
	c := newTest(1, 2, LRU)
	fill(c, 1, 0)
	fill(c, 2, 0)
	c.Invalidate(1)
	v := c.Victim(3)
	if v.Valid {
		t.Fatal("victim is valid although an invalid frame exists")
	}
	c.Fill(v, 3, 0)
	if c.Lookup(2) == nil {
		t.Fatal("block 2 was evicted despite free frame")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 5, 0)
	f := c.Lookup(5)
	f.Modified = true
	f.Exclusive = true
	if !c.Invalidate(5) {
		t.Fatal("Invalidate of present block returned false")
	}
	if c.Lookup(5) != nil {
		t.Fatal("block present after invalidate")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate of absent block returned true")
	}
}

func TestWritebackEvictionCounting(t *testing.T) {
	c := newTest(1, 1, LRU)
	fill(c, 1, 0)
	c.Lookup(1).Modified = true
	fill(c, 2, 0)
	if c.Stats().WritebackEv.Value() != 1 {
		t.Fatalf("writeback evictions = %d, want 1", c.Stats().WritebackEv.Value())
	}
}

func TestSnoopStolenCyclesWithoutDuplicateDirectory(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 4, 0)
	c.Snoop(4) // hit
	c.Snoop(5) // miss: still steals a cycle without the duplicate directory
	s := c.Stats()
	if s.SnoopLookups.Value() != 2 || s.SnoopHits.Value() != 1 {
		t.Fatalf("snoop lookups/hits = %d/%d", s.SnoopLookups.Value(), s.SnoopHits.Value())
	}
	if s.StolenCycles.Value() != 2 {
		t.Fatalf("stolen cycles = %d, want 2", s.StolenCycles.Value())
	}
}

func TestSnoopStolenCyclesWithDuplicateDirectory(t *testing.T) {
	c := New(Config{Sets: 2, Assoc: 2, DuplicateDirectory: true})
	fill(c, 4, 0)
	c.Snoop(4) // hit: steals a cycle
	c.Snoop(5) // miss: filtered by the duplicate directory
	if got := c.Stats().StolenCycles.Value(); got != 1 {
		t.Fatalf("stolen cycles = %d, want 1", got)
	}
}

func TestContentsAndCount(t *testing.T) {
	c := newTest(4, 2, LRU)
	for b := addr.Block(0); b < 5; b++ {
		fill(c, b, uint64(b))
	}
	if c.Count() != 5 {
		t.Fatalf("Count = %d", c.Count())
	}
	seen := map[addr.Block]bool{}
	for _, f := range c.Frames() {
		seen[f.Block] = seen[f.Block] || f.Valid
	}
	for b := addr.Block(0); b < 5; b++ {
		if !seen[b] {
			t.Fatalf("no valid frame holds %v", b)
		}
	}
}

// Property: under arbitrary fill, access, evict and invalidate sequences
// on any geometry and policy, Lookup and Count agree with a brute-force
// scan of every frame, and capacity is never exceeded per set.
func TestPropertyIndexConsistency(t *testing.T) {
	r := rng.New(17, 3)
	if err := quick.Check(func(opsRaw uint8) bool {
		ops := int(opsRaw) + 10
		sets, assoc := 1+r.Intn(4), 1+r.Intn(4)
		c := newTest(sets, assoc, ReplacementPolicy(r.Intn(3)))
		for i := 0; i < ops; i++ {
			b := addr.Block(r.Intn(32))
			switch {
			case r.Bool(0.2):
				c.Invalidate(b)
			case r.Bool(0.1):
				c.Evict(c.Victim(b))
			case c.Access(b) == nil:
				fill(c, b, uint64(i))
			}
		}
		valid := 0
		for _, f := range c.Frames() {
			if f.Valid {
				valid++
			}
		}
		if valid != c.Count() || valid > sets*assoc {
			return false
		}
		for b := addr.Block(0); b < 32; b++ {
			var want *Frame
			for i := range c.Frames() {
				if f := &c.Frames()[i]; f.Valid && f.Block == b {
					want = f
				}
			}
			if c.Lookup(b) != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fill never leaves two frames holding the same block.
func TestPropertyNoDuplicateBlocks(t *testing.T) {
	r := rng.New(23, 4)
	c := newTest(8, 4, LRU)
	for i := 0; i < 5000; i++ {
		b := addr.Block(r.Intn(64))
		if c.Lookup(b) == nil {
			fill(c, b, uint64(i))
		}
		if r.Bool(0.1) {
			c.Invalidate(addr.Block(r.Intn(64)))
		}
	}
	seen := map[addr.Block]bool{}
	for _, f := range c.Frames() {
		if !f.Valid {
			continue
		}
		if seen[f.Block] {
			t.Fatalf("duplicate frame for %v", f.Block)
		}
		seen[f.Block] = true
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if ReplacementPolicy(9).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := newTest(64, 4, LRU)
	for blk := addr.Block(0); blk < 64; blk++ {
		fill(c, blk, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Block(i % 64))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := newTest(16, 2, LRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := addr.Block(i % 128)
		if c.Lookup(blk) == nil {
			v := c.Victim(blk)
			c.Fill(v, blk, 0)
		}
	}
}

func TestEvictByFrameIdentity(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 2, 7)
	f := c.Lookup(2)
	f.Modified = true
	f.Exclusive = true
	c.Evict(f)
	if f.Valid || f.Modified || f.Exclusive {
		t.Fatalf("frame not cleared: %+v", f)
	}
	if c.Lookup(2) != nil {
		t.Fatal("Lookup still finds an evicted block")
	}
	// Evicting an invalid frame is a no-op.
	c.Evict(f)
}

// TestFillPanicsOnDuplicateResident pins the guard that keeps a block in
// at most one frame: filling a resident block into a different frame of
// its set is a protocol bug, not a replacement.
func TestFillPanicsOnDuplicateResident(t *testing.T) {
	c := newTest(1, 2, LRU)
	fill(c, 2, 1)
	other := c.Victim(3) // the set's free way, not block 2's frame
	if other == c.Lookup(2) {
		t.Fatal("victim for another block is block 2's frame")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("filling a resident block into a second frame did not panic")
		}
	}()
	c.Fill(other, 2, 9)
}
