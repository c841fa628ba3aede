package sim

// SetNaive switches the engine between the incremental O(affected)
// fair-share repricer (production default) and the reference O(flows/tier)
// implementation that recounts, settles, and reschedules every flow at
// every boundary. Test-only: the equivalence suite runs both modes over
// randomized workloads and asserts identical Results.
func (e *Engine) SetNaive(v bool) { e.naive = v }
