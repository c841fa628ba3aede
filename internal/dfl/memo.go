package dfl

import "sync"

// Memo caches plans computed from a graph, keyed by the graph's content
// fingerprint and the normalized planner config. Fault sweeps re-plan
// near-identical DFLs per seed; seeds whose measured graphs come out
// byte-identical hit the cache and skip the planning pass.
//
// The fingerprint covers every vertex, edge, and lifecycle property in
// canonical order, so two graphs that hash equal produce the same plan and a
// cached plan can be shared. Plans are treated as immutable by all consumers;
// callers that want to mutate one must copy it first.
//
// A Memo is safe for concurrent use.
type Memo[C comparable, P any] struct {
	plan      func(*Graph, C) (P, error)
	normalize func(C) C

	mu    sync.Mutex
	plans map[memoKey[C]]P
}

type memoKey[C comparable] struct {
	fp  uint64
	cfg C
}

// NewMemo returns an empty memo over plan. normalize maps a config to its
// canonical form (defaults filled in), so configs that plan alike share a
// cache entry.
func NewMemo[C comparable, P any](plan func(*Graph, C) (P, error), normalize func(C) C) *Memo[C, P] {
	return &Memo[C, P]{plan: plan, normalize: normalize, plans: make(map[memoKey[C]]P)}
}

// Plan returns the cached plan for (g, cfg), or computes and stores it; hit
// reports which. An error from the planner is returned and never cached.
func (m *Memo[C, P]) Plan(g *Graph, cfg C) (p P, hit bool, err error) {
	key := memoKey[C]{fp: g.Fingerprint(), cfg: m.normalize(cfg)}
	m.mu.Lock()
	p, hit = m.plans[key]
	m.mu.Unlock()
	if hit {
		return p, true, nil
	}

	if p, err = m.plan(g, cfg); err != nil {
		return p, false, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// Two goroutines may race to fill the same key; both computed the same
	// plan (planning is deterministic), but keep the first so repeated
	// lookups return a stable value.
	if prev, ok := m.plans[key]; ok {
		return prev, false, nil
	}
	m.plans[key] = p
	return p, false, nil
}
