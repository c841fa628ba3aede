package patterns

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/workflows"
)

func edge(t *testing.T, g *dfl.Graph, src, dst dfl.ID, kind dfl.EdgeKind, p dfl.FlowProps) *dfl.Edge {
	t.Helper()
	e, err := g.AddEdge(src, dst, kind, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClassify(t *testing.T) {
	g := dfl.New()
	d := dfl.DataID("hub")
	edge(t, g, dfl.TaskID("p1"), d, dfl.Producer, dfl.FlowProps{})
	edge(t, g, dfl.TaskID("p2"), d, dfl.Producer, dfl.FlowProps{})
	edge(t, g, d, dfl.TaskID("c1"), dfl.Consumer, dfl.FlowProps{})
	edge(t, g, d, dfl.TaskID("c2"), dfl.Consumer, dfl.FlowProps{})
	if got := Classify(g, d); got != FanInOut {
		t.Errorf("hub = %v", got)
	}
	if got := Classify(g, dfl.TaskID("p1")); got != Source {
		t.Errorf("p1 = %v", got)
	}
	if got := Classify(g, dfl.TaskID("c1")); got != Sink {
		t.Errorf("c1 = %v", got)
	}

	g2 := dfl.New()
	edge(t, g2, dfl.TaskID("a"), dfl.DataID("x"), dfl.Producer, dfl.FlowProps{})
	edge(t, g2, dfl.DataID("x"), dfl.TaskID("b"), dfl.Consumer, dfl.FlowProps{})
	if got := Classify(g2, dfl.DataID("x")); got != Regular {
		t.Errorf("x = %v", got)
	}

	g3 := dfl.New()
	edge(t, g3, dfl.TaskID("p"), dfl.DataID("f"), dfl.Producer, dfl.FlowProps{})
	edge(t, g3, dfl.DataID("f"), dfl.TaskID("t"), dfl.Consumer, dfl.FlowProps{})
	edge(t, g3, dfl.DataID("f2"), dfl.TaskID("t"), dfl.Consumer, dfl.FlowProps{})
	edge(t, g3, dfl.TaskID("t"), dfl.DataID("o"), dfl.Producer, dfl.FlowProps{})
	if got := Classify(g3, dfl.TaskID("t")); got != FanIn {
		t.Errorf("t = %v", got)
	}
	g4 := dfl.New()
	edge(t, g4, dfl.TaskID("s"), dfl.DataID("o1"), dfl.Producer, dfl.FlowProps{})
	edge(t, g4, dfl.TaskID("s"), dfl.DataID("o2"), dfl.Producer, dfl.FlowProps{})
	edge(t, g4, dfl.DataID("i"), dfl.TaskID("s"), dfl.Consumer, dfl.FlowProps{})
	if got := Classify(g4, dfl.TaskID("s")); got != FanOut {
		t.Errorf("s = %v", got)
	}
	if RelationClass(99).String() == "" {
		t.Error("unknown class string empty")
	}
}

// ddmdLike builds the DDMD shape of Fig. 2b: sims -> agg -> combined file
// consumed by train (heavy reuse) and lof (partial use).
func ddmdLike(t *testing.T) *dfl.Graph {
	t.Helper()
	g := dfl.New()
	for i := 0; i < 3; i++ {
		sim := dfl.TaskID("sim#" + string(rune('0'+i)))
		h5 := dfl.DataID("sim" + string(rune('0'+i)) + ".h5")
		edge(t, g, sim, h5, dfl.Producer, dfl.FlowProps{Volume: 500, Footprint: 500, Latency: 1})
		edge(t, g, h5, dfl.TaskID("agg"), dfl.Consumer, dfl.FlowProps{Volume: 500, Footprint: 500, Latency: 1})
	}
	comb := dfl.DataID("combined.h5")
	g.AddData(comb.Name).Data.Size = 1500
	edge(t, g, dfl.TaskID("agg"), comb, dfl.Producer, dfl.FlowProps{Volume: 1500, Footprint: 1500, Latency: 2})
	// train reads 2.4x the file size (reuse), lof reads only ~58%.
	edge(t, g, comb, dfl.TaskID("train"), dfl.Consumer, dfl.FlowProps{Volume: 3600, Footprint: 750, Latency: 8, SmallDistFrac: 0.7, ZeroDistFrac: 0.4})
	edge(t, g, comb, dfl.TaskID("lof"), dfl.Consumer, dfl.FlowProps{Volume: 880, Footprint: 750, Latency: 2})
	return g
}

func TestProjectAndRankProducerConsumer(t *testing.T) {
	g := ddmdLike(t)
	ranked := RankProducerConsumerByVolume(g)
	if len(ranked) == 0 {
		t.Fatal("no producer-consumer relations")
	}
	// Top relation must be agg -> combined.h5 -> train (min(1500, 3600)=1500).
	top := ranked[0]
	if top.Producer != dfl.TaskID("agg") || top.Consumer != dfl.TaskID("train") {
		t.Fatalf("top relation = %v", top)
	}
	if top.Value != 1500 {
		t.Fatalf("top value = %v", top.Value)
	}
	// Ranking must be non-increasing.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Value > ranked[i-1].Value {
			t.Fatal("ranking not sorted")
		}
	}
}

// rankReference sorts with a comparator that renders both entities on every
// comparison that ties on value: the reference order Rank must match.
func rankReference(entities []Entity) []Entity {
	sort.SliceStable(entities, func(i, j int) bool {
		if entities[i].Value != entities[j].Value {
			return entities[i].Value > entities[j].Value
		}
		return entities[i].String() < entities[j].String()
	})
	return entities
}

// equalVolumes is a graph whose producer-consumer relations all carry the
// same volume, so their order rests on the rendered-name tie-break alone.
func equalVolumes(t *testing.T) *dfl.Graph {
	g := dfl.New()
	for d := 0; d < 12; d++ {
		data := dfl.DataID(fmt.Sprintf("d%02d", d))
		for p := 0; p < 3; p++ {
			edge(t, g, dfl.TaskID(fmt.Sprintf("p%d-%d", d%4, p)), data, dfl.Producer, dfl.FlowProps{Volume: 64})
		}
		for c := 0; c < 5; c++ {
			edge(t, g, data, dfl.TaskID(fmt.Sprintf("c%d", (d+c)%7)), dfl.Consumer,
				dfl.FlowProps{Volume: 64 << (c % 2)})
		}
	}
	return g
}

func TestRankMatchesReference(t *testing.T) {
	graphs := map[string]*dfl.Graph{"equal volumes": equalVolumes(t)}
	for _, spec := range []*workflows.Spec{
		workflows.Genomes(workflows.DefaultGenomes()),
		workflows.DDMD(workflows.DefaultDDMD(), 0),
		workflows.Belle2(workflows.DefaultBelle2()),
		workflows.Montage(workflows.DefaultMontage()),
		workflows.Seismic(workflows.DefaultSeismic()),
		workflows.Random(workflows.DefaultRandom(1)),
	} {
		g, _, err := workflows.RunAndCollect(spec, workflows.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		graphs[spec.Name] = g
	}
	if pc := Project(graphs["equal volumes"], ProducerConsumerRelation, VolumeMetric); len(pc) != 180 || pc[0].Value != pc[179].Value {
		t.Fatalf("equal-volume graph: %d relations, not 180 of one volume", len(pc))
	}
	for name, g := range graphs {
		for _, kind := range []EntityKind{DataEntity, TaskEntity, ProducerRelation, ConsumerRelation, ProducerConsumerRelation} {
			got := Rank(Project(g, kind, VolumeMetric))
			if want := rankReference(Project(g, kind, VolumeMetric)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %v entities ranked differently from the reference comparator", name, kind)
			}
		}
		b := EstimateBenefits(g, Analyze(g, nil, Config{}), DefaultEnvelope())
		if !sort.SliceIsSorted(b, func(i, j int) bool {
			if b[i].SavedSeconds != b[j].SavedSeconds {
				return b[i].SavedSeconds > b[j].SavedSeconds
			}
			return b[i].String() < b[j].String()
		}) {
			t.Errorf("%s: benefits not in the reference comparator's order", name)
		}
	}
}

// TestRankByKeyBlocks ranks items whose keys fill, overflow and exceed the
// key blocks, with many tied values, against a stable sort on string keys.
func TestRankByKeyBlocks(t *testing.T) {
	type item struct {
		val float64
		key string
	}
	rng := rand.New(rand.NewSource(3))
	var items []item
	for i := 0; i < 3000; i++ {
		n := rng.Intn(300)
		if i%97 == 0 {
			n = 20000 + rng.Intn(20000) // longer than a block
		}
		key := make([]byte, n)
		for k := range key {
			key[k] = 'a' + byte(rng.Intn(3))
		}
		items = append(items, item{float64(rng.Intn(5)), string(key)})
	}
	want := slices.Clone(items)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].val != want[j].val {
			return want[i].val > want[j].val
		}
		return want[i].key < want[j].key
	})
	rankBy(items, func(it *item) float64 { return it.val },
		func(it *item, b []byte) []byte { return append(b, it.key...) })
	if !slices.Equal(items, want) {
		t.Fatal("rankBy order differs from the stable string-key sort")
	}
}

func TestProjectVertexEntities(t *testing.T) {
	g := ddmdLike(t)
	data := Rank(Project(g, DataEntity, VolumeMetric))
	if data[0].Data != dfl.DataID("combined.h5") {
		t.Fatalf("hottest data = %v", data[0])
	}
	tasks := Rank(Project(g, TaskEntity, VolumeMetric))
	found := false
	for _, e := range tasks {
		if e.Producer == dfl.TaskID("agg") {
			found = true
			if e.Value != 3000 { // 1500 in + 1500 out
				t.Fatalf("agg relation value = %v", e.Value)
			}
		}
	}
	if !found {
		t.Fatal("agg not projected")
	}
	prods := Project(g, ProducerRelation, nil)
	for _, p := range prods {
		if p.Producer.Kind != dfl.TaskVertex || p.Data.Kind != dfl.DataVertex {
			t.Fatal("producer relation endpoints wrong")
		}
	}
	cons := Project(g, ConsumerRelation, LatencyMetric)
	if len(cons) != 5 {
		t.Fatalf("consumer relations = %d", len(cons))
	}
}

func TestMetrics(t *testing.T) {
	e := &dfl.Edge{Props: dfl.FlowProps{Volume: 100, Footprint: 50, Latency: 2}}
	if VolumeMetric(e) != 100 || FootprintMetric(e) != 50 || LatencyMetric(e) != 2 {
		t.Fatal("metric values wrong")
	}
	if RateMetric(e) != 50 {
		t.Fatalf("RateMetric = %v", RateMetric(e))
	}
}

func TestTableRendering(t *testing.T) {
	g := ddmdLike(t)
	s := Table("Fig 2f: producer-consumer by volume", RankProducerConsumerByVolume(g), 3)
	if !strings.Contains(s, "agg") || !strings.Contains(s, "rank") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Count(s, "\n")
	if lines != 5 { // title + header + 3 rows
		t.Fatalf("table lines = %d:\n%s", lines, s)
	}
}

func TestDetectDataVolumeAndReuse(t *testing.T) {
	g := ddmdLike(t)
	opps := Analyze(g, nil, Config{})
	var haveVolume, haveIntra, haveNonUse, haveInter, haveAgg bool
	for _, o := range opps {
		switch o.Kind {
		case DataVolume:
			haveVolume = true
		case IntraTaskLocality:
			for _, v := range o.Vertices {
				if v == dfl.TaskID("train") {
					haveIntra = true
				}
			}
		case DataNonUse:
			for _, v := range o.Vertices {
				if v == dfl.TaskID("lof") {
					haveNonUse = true
				}
			}
		case InterTaskLocality:
			for _, v := range o.Vertices {
				if v == dfl.DataID("combined.h5") {
					haveInter = true
				}
			}
		case AggregatorPattern:
			haveAgg = true
		}
	}
	if !haveVolume {
		t.Error("DataVolume not detected")
	}
	if !haveIntra {
		t.Error("train's intra-task reuse not detected")
	}
	if !haveNonUse {
		t.Error("lof's partial use not detected")
	}
	if !haveInter {
		t.Error("inter-task locality on combined.h5 not detected")
	}
	if !haveAgg {
		t.Error("aggregator not detected")
	}
	// Ranked by severity.
	for i := 1; i < len(opps); i++ {
		if opps[i].Severity > opps[i-1].Severity {
			t.Fatal("opportunities not ranked")
		}
	}
}

// TestInterTaskLocalityNamesLoopTemplateDeterministically reads one file
// from three instances each of two task templates. The tie must name the
// smaller template on every analysis, whatever the map iteration order.
func TestInterTaskLocalityNamesLoopTemplateDeterministically(t *testing.T) {
	g := dfl.New()
	d := dfl.DataID("chr1n.tar.gz")
	for _, tpl := range []string{"mutat", "freq"} {
		for i := 1; i <= 3; i++ {
			edge(t, g, d, dfl.TaskID(fmt.Sprintf("%s#%d", tpl, i)), dfl.Consumer, dfl.FlowProps{Volume: 1000})
		}
	}
	for run := 0; run < 64; run++ {
		var detail string
		for _, o := range Analyze(g, nil, Config{}) {
			if o.Kind == InterTaskLocality {
				detail = o.Detail
			}
		}
		if !strings.Contains(detail, `3 are instances of task "freq"`) {
			t.Fatalf("run %d: detail %q, want the loop template freq", run, detail)
		}
	}
}

func TestDetectMismatchedRate(t *testing.T) {
	g := dfl.New()
	d := dfl.DataID("stream")
	// Producer writes at 1000 B/s; consumer drains at 50 B/s.
	edge(t, g, dfl.TaskID("fast"), d, dfl.Producer, dfl.FlowProps{Volume: 1000, Latency: 1})
	edge(t, g, d, dfl.TaskID("slow"), dfl.Consumer, dfl.FlowProps{Volume: 1000, Latency: 20})
	opps := Analyze(g, nil, Config{})
	for _, o := range opps {
		if o.Kind == MismatchedRate {
			if !strings.Contains(o.Detail, "x") {
				t.Fatalf("detail missing ratio: %s", o.Detail)
			}
			return
		}
	}
	t.Fatal("mismatched rate not detected")
}

func TestDetectDataNonUseLeaf(t *testing.T) {
	g := dfl.New()
	d := dfl.DataID("orphan")
	g.AddData(d.Name).Data.Size = 1 << 20
	edge(t, g, dfl.TaskID("p"), d, dfl.Producer, dfl.FlowProps{Volume: 1 << 20})
	opps := Analyze(g, nil, Config{})
	for _, o := range opps {
		if o.Kind == DataNonUse && strings.Contains(o.Detail, "never consumed") {
			return
		}
	}
	t.Fatal("orphan data not detected")
}

func TestDetectSplitterAndCompressor(t *testing.T) {
	g := dfl.New()
	// merge: 4 similar inputs -> 1 compressed output -> single consumer (the
	// 1000 Genomes compressor-aggregator of §5.3).
	for i := 0; i < 4; i++ {
		f := dfl.DataID("part" + string(rune('0'+i)))
		edge(t, g, dfl.TaskID("w#"+string(rune('0'+i))), f, dfl.Producer, dfl.FlowProps{Volume: 250})
		edge(t, g, f, dfl.TaskID("merge"), dfl.Consumer, dfl.FlowProps{Volume: 250})
	}
	tar := dfl.DataID("chr1n.tar.gz")
	edge(t, g, dfl.TaskID("merge"), tar, dfl.Producer, dfl.FlowProps{Volume: 300}) // 30% ratio
	edge(t, g, tar, dfl.TaskID("freq"), dfl.Consumer, dfl.FlowProps{Volume: 300})

	// splitter: one input, three outputs.
	src := dfl.DataID("bulk")
	edge(t, g, src, dfl.TaskID("split"), dfl.Consumer, dfl.FlowProps{Volume: 900})
	for i := 0; i < 3; i++ {
		edge(t, g, dfl.TaskID("split"), dfl.DataID("s"+string(rune('0'+i))), dfl.Producer, dfl.FlowProps{Volume: 300})
	}

	opps := Analyze(g, nil, Config{})
	var haveComp, haveSplit, haveAggReg bool
	for _, o := range opps {
		switch o.Kind {
		case CompressorAggregator:
			haveComp = true
		case SplitterPattern:
			haveSplit = true
		case AggregatorThenRegular:
			haveAggReg = true
		}
	}
	if !haveComp {
		t.Error("compressor-aggregator not detected")
	}
	if !haveSplit {
		t.Error("splitter not detected")
	}
	if !haveAggReg {
		t.Error("aggregator-then-regular not detected")
	}
}

func TestDetectParallelismTradeoffMustValidate(t *testing.T) {
	g := dfl.New()
	for i := 0; i < 5; i++ {
		f := dfl.DataID("in" + string(rune('0'+i)))
		edge(t, g, dfl.TaskID("p#"+string(rune('0'+i))), f, dfl.Producer, dfl.FlowProps{Volume: 10})
		edge(t, g, f, dfl.TaskID("gather"), dfl.Consumer, dfl.FlowProps{Volume: 10})
	}
	opps := Analyze(g, nil, Config{})
	for _, o := range opps {
		if o.Kind == ParallelismTradeoff {
			if !o.MustValidate {
				t.Fatal("parallelism trade-off must be flagged for validation")
			}
			if o.Severity != 5 {
				t.Fatalf("severity = %v, want in-degree 5", o.Severity)
			}
			return
		}
	}
	t.Fatal("parallelism trade-off not detected")
}

func TestDetectCriticalFlowNeedsCaterpillar(t *testing.T) {
	g := ddmdLike(t)
	// Without a caterpillar, no critical-flow opportunities.
	for _, o := range Analyze(g, nil, Config{}) {
		if o.Kind == CriticalFlow {
			t.Fatal("critical flow without caterpillar")
		}
	}
	p, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := cpa.DFLCaterpillar(g, p)
	var found bool
	for _, o := range Analyze(g, cat, Config{}) {
		if o.Kind == CriticalFlow {
			found = true
			if !o.MustValidate {
				t.Fatal("critical flow should require validation")
			}
		}
	}
	if !found {
		t.Fatal("critical flow not detected on caterpillar spine")
	}
}

func TestAnalyzeScopeNarrowing(t *testing.T) {
	g := ddmdLike(t)
	// Add a sizable off-path flow — smaller than the main chain so the
	// critical path stays on DDMD — that narrowing must exclude.
	edge(t, g, dfl.TaskID("other"), dfl.DataID("other.out"), dfl.Producer,
		dfl.FlowProps{Volume: 3000, Footprint: 3000, Latency: 100})

	p, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := cpa.DFLCaterpillar(g, p)
	for _, o := range Analyze(g, cat, Config{}) {
		for _, v := range o.Vertices {
			if v == dfl.TaskID("other") || v == dfl.DataID("other.out") {
				t.Fatalf("out-of-scope vertex in opportunity: %v", o)
			}
		}
	}
}

func TestKindAndReportStrings(t *testing.T) {
	for k := DataVolume; k <= AggregatorThenRegular; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", k)
		}
		if remediations[k] == "" {
			t.Errorf("kind %v has no remediation", k)
		}
	}
	g := ddmdLike(t)
	r := Report("opportunities", Analyze(g, nil, Config{}), 5)
	if !strings.Contains(r, "1.") || !strings.Contains(r, "opportunities") {
		t.Fatalf("report malformed:\n%s", r)
	}
}

func TestCoeffVar(t *testing.T) {
	if coeffVar(nil) != 0 {
		t.Error("empty cv")
	}
	if coeffVar([]float64{5, 5, 5}) != 0 {
		t.Error("constant cv")
	}
	if coeffVar([]float64{0, 0}) != 0 {
		t.Error("zero-mean cv")
	}
	if cv := coeffVar([]float64{1, 100}); cv < 0.9 {
		t.Errorf("dispersed cv = %v", cv)
	}
}

func TestEstimateBenefits(t *testing.T) {
	g := ddmdLike(t)
	opps := Analyze(g, nil, Config{})
	benefits := EstimateBenefits(g, opps, DefaultEnvelope())
	if len(benefits) == 0 {
		t.Fatal("no benefits estimated")
	}
	// Ranked descending, all positive.
	for i, b := range benefits {
		if b.SavedSeconds <= 0 {
			t.Fatalf("benefit %d not positive: %+v", i, b)
		}
		if i > 0 && b.SavedSeconds > benefits[i-1].SavedSeconds {
			t.Fatal("benefits not ranked")
		}
		if b.Mechanism == "" {
			t.Fatal("missing mechanism")
		}
	}
	// train's intra-task reuse must appear: re-reads beyond footprint can be
	// cached.
	var haveTrainCache bool
	for _, b := range benefits {
		if b.Kind == IntraTaskLocality {
			for _, v := range b.Vertices {
				if v == dfl.TaskID("train") {
					haveTrainCache = true
				}
			}
		}
	}
	if !haveTrainCache {
		t.Error("train caching benefit not estimated")
	}
	rep := BenefitReport(benefits, 3)
	if !strings.Contains(rep, "save ~") {
		t.Fatalf("report malformed:\n%s", rep)
	}
}

func TestEstimateBenefitsZeroEnvelopeDefaults(t *testing.T) {
	g := ddmdLike(t)
	opps := Analyze(g, nil, Config{})
	a := EstimateBenefits(g, opps, ResourceEnvelope{})
	b := EstimateBenefits(g, opps, DefaultEnvelope())
	if len(a) != len(b) {
		t.Fatalf("default fallback differs: %d vs %d", len(a), len(b))
	}
}
