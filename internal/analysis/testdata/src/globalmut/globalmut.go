// Package globalmut is the simlint globalmut fixture: package-level
// writes in every allowed and flagged position, including the
// process-global knob shapes (setter, Swap helper) that no longer have
// an exemption.
package globalmut

import "sync/atomic"

// state, registry and table are ordinary package-level state.
var (
	state    int
	registry = map[string]int{}
	table    [4]int
)

func init() {
	state = 1         // allowed: registration time
	registry["a"] = 1 // allowed
}

// Mutate writes package-level state outside init in each shape.
func Mutate(n int) {
	state = n         // want "writes package-level state outside init"
	registry["b"] = n // want "writes package-level registry outside init"
	table[0] = n      // want "writes package-level table outside init"
	state++           // want "writes package-level state outside init"
}

// Local shadows and locals are not package-level state: allowed.
func Local(n int) int {
	state := n
	table := [4]int{}
	table[0] = state
	return table[0]
}

// knob is a package-level atomic.
var knob atomic.Bool

// Knob is the setter shape of a process-global knob.
func Knob(on bool) {
	knob.Store(on) // want "knob.Store mutates a package-level atomic outside init"
}

// SwapKnob is the set-and-restore shape.
func SwapKnob(on bool) func() {
	prev := knob.Swap(on) // want "knob.Swap mutates a package-level atomic outside init"
	return func() {
		knob.Store(prev) // want "knob.Store mutates a package-level atomic outside init"
	}
}

// Receiver-owned atomics are not package-level state: allowed.
type counter struct{ n atomic.Int64 }

func (c *counter) Bump() { c.n.Add(1) }
