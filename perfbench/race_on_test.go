//go:build race

package main

// smokeBudget is long enough under the race detector's slowdown for
// every load goroutine to finish the deterministic op prefix.
const smokeBudget = 8e9
