//go:build race

package main

// raceEnabled reports that this binary was built with -race, under which
// the full table set runs for minutes.
const raceEnabled = true
