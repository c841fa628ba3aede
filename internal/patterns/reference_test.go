package patterns

import (
	"datalife/internal/cpa"
	"datalife/internal/dfl"
)

// referenceAnalyze is Analyze as the detectors scoped themselves before
// Caterpillar.Scope: every detector loop walked the whole graph's canonical
// task, file or edge list and skipped what the caterpillar does not contain.
// Caterpillar-scoped Analyze must produce the same opportunities.
func referenceAnalyze(g *dfl.Graph, cat *cpa.Caterpillar, cfg Config) []Opportunity {
	inScope := func(id dfl.ID) bool { return cat == nil || cat.Contains(id) }
	var tasks, data []*dfl.Vertex
	var edges []*dfl.Edge
	for _, v := range g.Tasks() {
		if inScope(v.ID) {
			tasks = append(tasks, v)
		}
	}
	for _, v := range g.DataFiles() {
		if inScope(v.ID) {
			data = append(data, v)
		}
	}
	for _, e := range g.Edges() {
		if inScope(e.Src) && inScope(e.Dst) {
			edges = append(edges, e)
		}
	}
	return analyze(g, cat, cfg, tasks, data, edges)
}
