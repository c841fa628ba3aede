package dfl

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoConcurrentPlans shares one memo between goroutines planning the
// same graph under configs that normalize to two keys: every lookup returns
// the plan of its normalized config, and a planner error is returned, not
// cached.
func TestMemoConcurrentPlans(t *testing.T) {
	g := New()
	if _, err := g.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{Volume: 1}); err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	errPlan := errors.New("no plan")
	var calls atomic.Int64
	m := NewMemo(func(g *Graph, cfg int) (uint64, error) {
		calls.Add(1)
		if cfg < 0 {
			return 0, errPlan
		}
		return g.Fingerprint() + uint64(cfg%2), nil
	}, func(cfg int) int {
		if cfg < 0 {
			return cfg
		}
		return cfg % 2
	})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := 0; cfg < 16; cfg++ {
				p, _, err := m.Plan(g, cfg)
				if err != nil || p != fp+uint64(cfg%2) {
					t.Errorf("Plan(cfg %d) = %d, %v; want %d", cfg, p, err, fp+uint64(cfg%2))
				}
			}
		}()
	}
	wg.Wait()
	if _, hit, _ := m.Plan(g, 4); !hit {
		t.Error("a config normalizing to a cached key missed")
	}

	before := calls.Load()
	for i := 0; i < 2; i++ {
		if _, hit, err := m.Plan(g, -1); !errors.Is(err, errPlan) || hit {
			t.Fatalf("failing plan: hit=%v err=%v", hit, err)
		}
	}
	if got := calls.Load() - before; got != 2 {
		t.Fatalf("failing plan ran %d times for 2 lookups; errors must not be cached", got)
	}
}
