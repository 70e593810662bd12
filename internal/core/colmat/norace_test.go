//go:build !race

package colmat

const raceEnabled = false
