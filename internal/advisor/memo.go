package advisor

import "datalife/internal/dfl"

// NewMemo returns a cache of Advise results keyed by the graph's content
// fingerprint and the config with defaults filled in (see dfl.Memo). The
// cached *Plan is shared between hits, so callers must not mutate it.
func NewMemo() *dfl.Memo[Config, *Plan] {
	return dfl.NewMemo(Advise, Config.withDefaults)
}
