//go:build !arenapoison

package tensor

// poisonReleased is off in normal builds: released ranges keep their values
// until they are handed out again (and zeroed). See arena_poison.go.
const poisonReleased = false
