//go:build !race

package campaign

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts are not reproducible.
const raceEnabled = false
