// Package skel is a controller skeleton the memory-side fixture embeds;
// its send site is the memory side's only reference to KindPong.
package skel

import "handlergood/msg"

// Skel is the shared controller skeleton.
type Skel struct{ sent []msg.Kind }

// Reply sends the skeleton's answer.
func (s *Skel) Reply() { s.sent = append(s.sent, msg.KindPong) }
