//go:build !race

package anycastctx

const raceEnabled = false
