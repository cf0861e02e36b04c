//go:build race

package anycastctx

// raceEnabled reports whether the race detector instruments this test
// binary; it roughly doubles allocation, so the work golden's allocation
// band is skipped under it.
const raceEnabled = true
