//go:build race

package simcheck

// The race detector's build allocates about half as much again.
func init() { seedBudgetKB = 2800 }
