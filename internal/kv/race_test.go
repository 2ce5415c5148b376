//go:build race

package kv

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so a test that counts allocations counts refills.
const raceEnabled = true
