//go:build !race

package layers

const raceEnabled = false
