//go:build race

package dist

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop items at random, so gob's pooled encode buffers are sometimes
// regrown and allocation counts vary.
const raceEnabled = true
