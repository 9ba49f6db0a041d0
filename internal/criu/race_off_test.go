//go:build !race

package criu

const raceEnabled = false
