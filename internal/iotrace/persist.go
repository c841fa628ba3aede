package iotrace

import (
	"encoding/json"
	"fmt"
	"io"

	"datalife/internal/blockstats"
)

// The paper's artifact stores collected I/O state as per task-file records
// ("tazer_stat" files) that the analyzer loads later. SaveJSON/LoadJSON are
// the equivalent here: they persist a collector's histograms and task
// lifetimes so collection and analysis can run as separate phases.

// persistFlow is the stable serialization of one task-file histogram. The
// per-block histogram is reduced to its aggregate form (graph construction
// consumes aggregates; block detail can be re-measured when needed).
type persistFlow struct {
	Task string `json:"task"`
	File string `json:"file"`

	FileSize  int64 `json:"file_size"`
	BlockSize int64 `json:"block_size"`

	ReadOps    uint64  `json:"read_ops"`
	WriteOps   uint64  `json:"write_ops"`
	ReadBytes  uint64  `json:"read_bytes"`
	WriteBytes uint64  `json:"write_bytes"`
	ReadTime   float64 `json:"read_time"`
	WriteTime  float64 `json:"write_time"`
	OpenTime   float64 `json:"open_time"`
	CloseTime  float64 `json:"close_time"`
	Opens      uint64  `json:"opens"`
	Closes     uint64  `json:"closes"`

	DistSum   float64 `json:"dist_sum"`
	DistN     uint64  `json:"dist_n"`
	ZeroDist  uint64  `json:"zero_dist"`
	SmallDist uint64  `json:"small_dist"`

	ReadFootprint  uint64 `json:"read_footprint"`
	WriteFootprint uint64 `json:"write_footprint"`
	TotalFootprint uint64 `json:"total_footprint"`
}

type persistTask struct {
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Incomplete marks a task that had not both started and ended, whose
	// lifetime is therefore zero (TaskInfo.Lifetime). It is omitted when
	// false, so a completed task's record is just name, start and end.
	Incomplete bool `json:"incomplete,omitempty"`
}

type persistDoc struct {
	Config blockstats.Config `json:"config"`
	Tasks  []persistTask     `json:"tasks"`
	Flows  []persistFlow     `json:"flows"`
}

// SaveJSON writes the collector state as a stable JSON document.
func (c *Collector) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.persistDoc())
}

// persistDoc snapshots the collector into its stable serialized form.
func (c *Collector) persistDoc() persistDoc {
	doc := persistDoc{Config: c.Config()}
	for _, ti := range c.Tasks() {
		doc.Tasks = append(doc.Tasks, persistTask{Name: ti.Name, Start: ti.Start, End: ti.End,
			Incomplete: !ti.started || !ti.ended})
	}
	for _, fl := range c.Flows() {
		pf := flowRecord(fl)
		pf.ReadFootprint = fl.Footprint(blockstats.Read)
		pf.WriteFootprint = fl.Footprint(blockstats.Write)
		pf.TotalFootprint = fl.TotalFootprint()
		doc.Flows = append(doc.Flows, pf)
	}
	return doc
}

// flowRecord copies a histogram's aggregates into the serialized form. The
// footprints, which walk the block histogram, are left to the caller.
func flowRecord(fl *blockstats.FlowStat) persistFlow {
	return persistFlow{
		Task: fl.Task, File: fl.File,
		FileSize: fl.FileSize(), BlockSize: fl.BlockSize(),
		ReadOps: fl.ReadOps, WriteOps: fl.WriteOps,
		ReadBytes: fl.ReadBytes, WriteBytes: fl.WriteBytes,
		ReadTime: fl.ReadTime, WriteTime: fl.WriteTime,
		OpenTime: fl.OpenTime, CloseTime: fl.CloseTime,
		Opens: fl.Opens, Closes: fl.Closes,
		DistSum: fl.DistSum, DistN: fl.DistN,
		ZeroDist: fl.ZeroDist, SmallDist: fl.SmallDist,
	}
}

// Summarize reduces a live histogram to the record LoadJSON yields for it
// after SaveJSON, so graph construction folds live and saved measurements
// through one path. A footprint is computed only for a direction that has
// operations: no edge carries the other.
func Summarize(fl *blockstats.FlowStat) SavedFlow {
	pf := flowRecord(fl)
	if fl.ReadOps > 0 {
		pf.ReadFootprint = fl.Footprint(blockstats.Read)
	}
	if fl.WriteOps > 0 {
		pf.WriteFootprint = fl.Footprint(blockstats.Write)
	}
	return pf.summary()
}

// SavedFlow is one task-file record with the derived metrics the graph
// builder needs, loaded from a saved state or summarized from a live
// histogram (Summarize).
type SavedFlow struct {
	Task, File            string
	FileSize              int64
	ReadOps, WriteOps     uint64
	ReadBytes, WriteBytes uint64
	ReadTime, WriteTime   float64
	FileLifetime          float64
	MeanDistance          float64
	ZeroDistFrac          float64
	SmallDistFrac         float64
	ReadFootprint         uint64
	WriteFootprint        uint64
}

// SavedState is a loaded measurement database.
type SavedState struct {
	Config blockstats.Config
	Tasks  []TaskInfo
	Flows  []SavedFlow
	// Partial reports that the state was recovered from a journal whose
	// tail was torn (the run was killed mid-flight): the snapshot is the
	// last durable one, not necessarily the run's final state.
	Partial bool
}

// LoadJSON reads a measurement database written by SaveJSON.
func LoadJSON(r io.Reader) (*SavedState, error) {
	var doc persistDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("iotrace: decoding saved state: %w", err)
	}
	return docToState(doc), nil
}

func docToState(doc persistDoc) *SavedState {
	st := &SavedState{Config: doc.Config}
	for _, pt := range doc.Tasks {
		st.Tasks = append(st.Tasks, TaskInfo{Name: pt.Name, Start: pt.Start, End: pt.End,
			started: true, ended: !pt.Incomplete})
	}
	for i := range doc.Flows {
		st.Flows = append(st.Flows, doc.Flows[i].summary())
	}
	return st
}

// summary derives the graph builder's per-flow metrics from the aggregates,
// with the same arithmetic as the FlowStat accessors.
func (pf *persistFlow) summary() SavedFlow {
	sf := SavedFlow{
		Task: pf.Task, File: pf.File, FileSize: pf.FileSize,
		ReadOps: pf.ReadOps, WriteOps: pf.WriteOps,
		ReadBytes: pf.ReadBytes, WriteBytes: pf.WriteBytes,
		ReadTime: pf.ReadTime, WriteTime: pf.WriteTime,
		ReadFootprint: pf.ReadFootprint, WriteFootprint: pf.WriteFootprint,
	}
	if lt := pf.CloseTime - pf.OpenTime; pf.Opens > 0 && lt > 0 {
		sf.FileLifetime = lt
	}
	if pf.DistN > 0 {
		sf.MeanDistance = pf.DistSum / float64(pf.DistN)
		sf.ZeroDistFrac = float64(pf.ZeroDist) / float64(pf.DistN)
		sf.SmallDistFrac = float64(pf.SmallDist) / float64(pf.DistN)
	}
	return sf
}
