package privacy

import (
	"sync/atomic"

	"secureview/internal/relation"
)

// CountingOracle wraps a SafeViewOracle and counts calls. It is safe for
// concurrent use, so it can sit under the parallel search engine.
type CountingOracle struct {
	Inner SafeViewOracle
	calls atomic.Int64
}

// IsSafe delegates and increments the call counter.
func (c *CountingOracle) IsSafe(visible relation.NameSet) (bool, error) {
	c.calls.Add(1)
	return c.Inner.IsSafe(visible)
}

// Calls returns the number of oracle queries made so far.
func (c *CountingOracle) Calls() int { return int(c.calls.Load()) }
