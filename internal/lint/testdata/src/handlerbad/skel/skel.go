// Package skel holds the controller skeleton ctrl embeds and, beside it,
// a cache agent. Only Skel's own methods count for the memory side: the
// agent's reference to KindPong must not.
package skel

import "handlerbad/msg"

// Skel is the shared controller skeleton.
type Skel struct{ sent []msg.Kind }

// Reply sends the skeleton's answer.
func (s *Skel) Reply() { s.sent = append(s.sent, msg.KindPing) }

// Agent implements proto.CacheSide.
type Agent struct{}

// Handle dispatches controller commands.
func (Agent) Handle(k msg.Kind) { _ = k == msg.KindPong }
