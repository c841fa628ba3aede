package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"datalife/internal/advisor"
	"datalife/internal/blockstats"
	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/journal"
	"datalife/internal/patterns"
)

// session is the server-side state of one client stream: a private collector
// and live DFL graph, a crash-consistent journal, and the ingest queue that
// decouples wire acknowledgement (durable) from analysis state (applied,
// synced).
//
// Sequence discipline: every event has a sequence number; nextSeq is the next
// number the journal has not made durable, appliedSeq the next not yet folded
// into the collector, syncedSeq the next not yet reflected in the DFL graph.
// nextSeq >= appliedSeq >= syncedSeq always, and a batch is acknowledged to
// the client only after its suffix beyond nextSeq is journaled and fsynced —
// so a SIGKILL at any instant loses only unacknowledged events, which the
// client resends on reconnect.
type session struct {
	name string
	path string

	// mu guards the collector, graph, dirty sets, appliedSeq, and syncedSeq.
	// The applier mutates under it; query handlers read (and may sync) under
	// it. cond broadcasts applier progress for queries waiting on MinSeq.
	mu   sync.Mutex
	cond *sync.Cond

	col *iotrace.Collector
	g   *dfl.Graph

	// nextSeq is owned by the attached connection goroutine (only one at a
	// time); written during replay before the session is visible.
	nextSeq    uint64
	appliedSeq uint64 // under mu
	syncedSeq  uint64 // under mu

	// replayTruncated records that journal recovery dropped a torn tail.
	replayTruncated bool
	resumed         bool

	jf *os.File
	jw *journal.Writer

	// queue carries journaled batches to the applier; slots is the matching
	// counting semaphore, acquired before journaling so an accepted batch is
	// guaranteed to enqueue without blocking.
	queue chan eventsMsg
	slots chan struct{}

	quit        chan struct{}
	applierDone chan struct{}

	// Dirty bookkeeping between syncs, plus the cumulative flow membership
	// needed to recompute a task vertex from scratch.
	dirtyTasks map[string]bool
	dirtyFlows map[[2]string]bool
	taskFiles  map[string]map[string]bool

	attached bool // under Server.mu
}

func newSession(name, path string, cfg blockstats.Config, depth int) (*session, error) {
	col, err := iotrace.NewCollector(cfg)
	if err != nil {
		return nil, err
	}
	s := &session{
		name:        name,
		path:        path,
		col:         col,
		g:           dfl.New(),
		queue:       make(chan eventsMsg, depth),
		slots:       make(chan struct{}, depth),
		quit:        make(chan struct{}),
		applierDone: make(chan struct{}),
		dirtyTasks:  make(map[string]bool),
		dirtyFlows:  make(map[[2]string]bool),
		taskFiles:   make(map[string]map[string]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// recover replays the session's journal file (creating it if absent),
// tolerating a torn tail: the longest valid prefix whose batches sequence
// contiguously is applied, and the file is truncated to that prefix so the
// next append extends clean state.
func (s *session) recover() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	sc := journal.NewScanner(f)
	valid := int64(0)
	for sc.Scan() {
		batch, err := decodeEvents(sc.Bytes())
		if err != nil || batch.FirstSeq != s.nextSeq {
			// A record that does not decode or does not extend the sequence
			// contiguously is treated like a torn tail: recover the prefix.
			s.replayTruncated = true
			break
		}
		s.applyBatch(batch)
		s.nextSeq = batch.FirstSeq + uint64(len(batch.Events))
		valid = sc.Offset()
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return err
	}
	if sc.Truncated() {
		s.replayTruncated = true
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return err
	}
	s.appliedSeq = s.nextSeq
	s.resumed = s.nextSeq > 0
	s.jf = f
	s.jw = journal.NewWriter(f)
	return nil
}

// applyBatch folds a batch into the collector and dirty sets. Called during
// replay (single-threaded) and by the applier (under mu).
func (s *session) applyBatch(batch eventsMsg) {
	for _, ev := range batch.Events {
		// Events were validated on decode; application errors (unknown kind,
		// missing names) cannot corrupt state, so a bad journaled event is
		// skipped rather than poisoning replay.
		if err := s.col.ApplyEvent(ev); err != nil {
			continue
		}
		s.dirtyTasks[ev.Task] = true
		if ev.File != "" {
			s.dirtyFlows[[2]string{ev.Task, ev.File}] = true
			tf := s.taskFiles[ev.Task]
			if tf == nil {
				tf = make(map[string]bool)
				s.taskFiles[ev.Task] = tf
			}
			tf[ev.File] = true
		}
	}
}

// runApplier drains the ingest queue, folding batches into the collector and
// syncing the DFL graph whenever the queue goes idle — under backlog the sync
// is deferred, which is the freshness half of the degradation ladder.
func (s *session) runApplier() {
	defer close(s.applierDone)
	for {
		select {
		case batch := <-s.queue:
			s.mu.Lock()
			s.applyBatch(batch)
			s.appliedSeq = batch.FirstSeq + uint64(len(batch.Events))
			if len(s.queue) == 0 {
				s.syncGraphLocked()
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			<-s.slots
		case <-s.quit:
			// Drain what is already queued so a clean shutdown leaves the
			// in-memory state matching the journal.
			for {
				select {
				case batch := <-s.queue:
					s.mu.Lock()
					s.applyBatch(batch)
					s.appliedSeq = batch.FirstSeq + uint64(len(batch.Events))
					s.cond.Broadcast()
					s.mu.Unlock()
					<-s.slots
				default:
					return
				}
			}
		}
	}
}

// syncGraphLocked folds the dirty collector state into the live DFL graph
// through dfl's fold, so the graph is a pure function of collector content —
// independent of how many intermediate syncs happened, which is what makes
// kill-and-resume output byte-identical to an uninterrupted run. Dirty sets
// are walked in sorted order so edge insertion order is deterministic too.
func (s *session) syncGraphLocked() {
	if s.syncedSeq == s.appliedSeq && len(s.dirtyTasks) == 0 && len(s.dirtyFlows) == 0 {
		return
	}
	flows := make([][2]string, 0, len(s.dirtyFlows))
	for k := range s.dirtyFlows {
		flows = append(flows, k)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i][0] != flows[j][0] {
			return flows[i][0] < flows[j][0]
		}
		return flows[i][1] < flows[j][1]
	})
	for _, k := range flows {
		s.syncFlow(k[0], k[1])
	}
	for _, task := range sortedKeys(s.dirtyTasks) {
		s.syncTask(task)
	}
	clear(s.dirtyTasks)
	clear(s.dirtyFlows)
	s.syncedSeq = s.appliedSeq
}

// syncFlow refreshes the producer/consumer edges of one (task, file) flow
// and folds the flow into its file's vertex. A file's size and lifetime are
// maxima over its flows, and neither quantity of a flow ever decreases, so
// folding the changed flow into the vertex gives what recomputing the
// maxima over every flow of the file would.
func (s *session) syncFlow(task, file string) {
	f := iotrace.Summarize(s.col.Flow(task, file, 0))
	tid, did := dfl.TaskID(task), dfl.DataID(file)
	s.g.AddTask(task)
	v := s.g.AddData(file)
	p := v.Data
	p.AddFlow(f)
	if p != v.Data {
		s.g.SetDataProps(file, p)
	}
	read, write := dfl.FlowEdges(f)
	if read.Ops > 0 && !s.g.SetEdgeProps(did, tid, read) {
		// Direction is correct by construction; AddEdge cannot fail.
		_, _ = s.g.AddEdge(did, tid, dfl.Consumer, read)
	}
	if write.Ops > 0 && !s.g.SetEdgeProps(tid, did, write) {
		_, _ = s.g.AddEdge(tid, did, dfl.Producer, write)
	}
}

// syncTask recomputes one task vertex's properties from scratch: lifetime
// from the collector's task info plus its flows folded in file order, the
// order dfl.Build folds them in (float sums depend on order).
func (s *session) syncTask(task string) {
	var p dfl.TaskProps
	if ti := s.col.Task(task); ti != nil {
		p.Lifetime = ti.Lifetime()
	}
	for _, file := range sortedKeys(s.taskFiles[task]) {
		p.AddFlow(iotrace.Summarize(s.col.Flow(task, file, 0)))
	}
	s.g.AddTask(task)
	s.g.SetTaskProps(task, p)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stop shuts the applier down (draining journaled batches) and closes the
// journal file.
func (s *session) stop() {
	close(s.quit)
	<-s.applierDone
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
}

// answer runs one query against the session's live graph. MinSeq semantics:
// wait until at least q.MinSeq events are applied (they are all journaled
// already, so this terminates), then sync if the queue is idle. Under
// backlog a query with MinSeq 0 answers immediately from the last synced
// snapshot, marked stale — freshness degrades before ingest does.
func (s *session) answer(q queryMsg) resultMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.appliedSeq < q.MinSeq {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		s.syncGraphLocked()
	}
	res := resultMsg{
		Applied: s.appliedSeq,
		Synced:  s.syncedSeq,
		Stale:   s.syncedSeq < s.appliedSeq,
	}
	body, err := renderQuery(s.g, q)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Body = body
	return res
}

// renderQuery produces the deterministic text answer for one query kind. The
// output is a pure function of graph content (no timestamps, no map order),
// which the kill-and-resume byte-identity gate relies on.
func renderQuery(g *dfl.Graph, q queryMsg) (string, error) {
	top := int(q.Top)
	if top <= 0 {
		top = 10
	}
	switch q.Kind {
	case "summary":
		var b strings.Builder
		fmt.Fprintf(&b, "vertices %d edges %d\n", g.NumVertices(), g.NumEdges())
		fmt.Fprintf(&b, "total volume %d B\n", g.TotalVolume())
		if _, err := g.TopoSort(); err != nil {
			fmt.Fprintf(&b, "topology: %v\n", err)
		} else {
			fmt.Fprintf(&b, "topology: DAG\n")
		}
		fmt.Fprintf(&b, "fingerprint %#016x\n", g.Fingerprint())
		return b.String(), nil
	case "cpa":
		path, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "critical path (volume): %d vertices, weight %.4g\n",
			len(path.Vertices), path.Weight)
		for i, id := range path.Vertices {
			if i >= top {
				fmt.Fprintf(&b, "  ... %d more\n", len(path.Vertices)-top)
				break
			}
			fmt.Fprintf(&b, "  %2d. %s\n", i+1, id)
		}
		return b.String(), nil
	case "advisor":
		plan, err := advisor.Advise(g, advisor.Config{})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(plan.Report(top))
		fmt.Fprintf(&b, "plan locality score: %.0f%% of flow volume becomes node-local\n",
			100*plan.LocalityScore(g))
		return b.String(), nil
	case "patterns":
		path, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
		if err != nil {
			return "", err
		}
		cat := cpa.DFLCaterpillar(g, path)
		opps := patterns.Analyze(g, cat, patterns.Config{})
		return patterns.Report("opportunities on the caterpillar (ranked):", opps, top), nil
	default:
		return "", fmt.Errorf("serve: unknown query kind %q", q.Kind)
	}
}

// sessionPath maps a session name to its journal file.
func sessionPath(dir, name string) string {
	return filepath.Join(dir, name+".journal")
}

// validSessionName restricts session names to a safe filename alphabet.
func validSessionName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
