// Package ctrl is the memory-side dispatcher; it only knows Ping.
package ctrl

import (
	"handlerbad/msg"
	"handlerbad/skel"
)

// Ctrl implements proto.MemSide.
type Ctrl struct{ skel.Skel }

// Serve dispatches cache commands.
func (c *Ctrl) Serve(k msg.Kind) {
	if k != msg.KindPing {
		panic("ctrl: unexpected kind")
	}
	c.Reply()
}
