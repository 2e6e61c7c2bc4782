package directory

import (
	"fmt"
	"math/bits"

	"twobit/internal/addr"
)

// DupTagStore is the Tang-style (§2.4.1) central duplicate of every
// cache's directory. The central controller updates it on every cache
// directory change and can therefore answer "which caches hold block a?"
// exactly, like the full map — the cost is centralization, modeled in
// internal/duplication as a serial service bottleneck.
//
// Both tables are dense by block: one presence word (bit c for cache c;
// machines have at most 64 caches) and the modifying cache, so the store
// costs the same few bytes per block whether or not the block is cached.
type DupTagStore struct {
	caches int
	// present[a] has bit c set while cache c holds block a.
	present []uint64
	// modifiedBy[a] is 1 + the cache holding a modified, or 0.
	modifiedBy []uint8
}

// NewDupTagStore returns a store for caches caches (at most 64) over
// blocks blocks.
func NewDupTagStore(caches, blocks int) *DupTagStore {
	if caches < 1 || caches > 64 {
		panic(fmt.Sprintf("directory: DupTagStore for %d caches (want 1..64)", caches))
	}
	return &DupTagStore{
		caches:     caches,
		present:    make([]uint64, blocks),
		modifiedBy: make([]uint8, blocks),
	}
}

// Reset empties every tag set and the modified table.
func (d *DupTagStore) Reset() {
	clear(d.present)
	clear(d.modifiedBy)
}

// Caches returns the number of tracked caches.
func (d *DupTagStore) Caches() int { return d.caches }

// NoteFill records that cache now holds block (clean).
func (d *DupTagStore) NoteFill(cache int, block addr.Block) {
	d.present[block] |= 1 << uint(cache)
}

// NoteEvict records that cache no longer holds block.
func (d *DupTagStore) NoteEvict(cache int, block addr.Block) {
	d.present[block] &^= 1 << uint(cache)
	if int(d.modifiedBy[block]) == cache+1 {
		d.modifiedBy[block] = 0
	}
}

// NoteModify records that cache holds block modified.
func (d *DupTagStore) NoteModify(cache int, block addr.Block) {
	d.present[block] |= 1 << uint(cache)
	d.modifiedBy[block] = uint8(cache + 1)
}

// NoteClean records that block is no longer modified anywhere.
func (d *DupTagStore) NoteClean(block addr.Block) {
	d.modifiedBy[block] = 0
}

// Holds reports whether cache holds block.
func (d *DupTagStore) Holds(cache int, block addr.Block) bool {
	return d.present[block]&(1<<uint(cache)) != 0
}

// Holders returns the caches holding block, ascending.
func (d *DupTagStore) Holders(block addr.Block) []int {
	var out []int
	for v := d.present[block]; v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(v))
	}
	return out
}

// ModifiedBy returns the cache holding block modified, or -1.
func (d *DupTagStore) ModifiedBy(block addr.Block) int {
	return int(d.modifiedBy[block]) - 1
}

// GlobalState derives the two-bit abstraction, for invariant checks.
func (d *DupTagStore) GlobalState(block addr.Block) State {
	if d.ModifiedBy(block) >= 0 {
		return PresentM
	}
	switch bits.OnesCount64(d.present[block]) {
	case 0:
		return Absent
	case 1:
		return Present1
	default:
		return PresentStar
	}
}
