//go:build race

package live

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates on its own and makes
// allocation budgets meaningless.
const raceEnabled = true
