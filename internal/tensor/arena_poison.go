//go:build arenapoison

package tensor

// poisonReleased makes Put, PutFloats and Detach fill every released range
// with the poisonNaN pattern, so a read after release turns into NaN values
// and a failed digest. `make poison` runs the numeric packages' tests under
// this tag.
const poisonReleased = true
