//go:build race

package core

// raceEnabled: the race detector's shadow memory makes allocation sizes mean
// something else, so a test that budgets bytes skips itself.
const raceEnabled = true
