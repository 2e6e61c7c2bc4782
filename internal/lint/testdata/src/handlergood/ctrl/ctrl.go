// Package ctrl is the memory-side handler fixture. It dispatches
// KindPing itself; KindPong is referenced only by the skeleton it
// embeds, which counts as memory-side too.
package ctrl

import (
	"handlergood/msg"
	"handlergood/skel"
)

// Ctrl implements proto.MemSide.
type Ctrl struct {
	skel.Skel
}

// Serve dispatches cache commands.
func (c *Ctrl) Serve(k msg.Kind) {
	switch k {
	case msg.KindPing:
		c.Reply()
	default:
		panic("ctrl: unexpected kind")
	}
}
