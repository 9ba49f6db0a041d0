//go:build race

package criu

const raceEnabled = true
