//go:build race

package colmat

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random quarter of Puts by design, so pool-hit counts there
// are a sample, not a near-certainty.
const raceEnabled = true
