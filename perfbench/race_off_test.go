//go:build !race

package main

// smokeBudget is the measured time of each smoke-test run, in ns.
const smokeBudget = 1e9
