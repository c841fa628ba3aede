// Package vfs provides the in-memory, tiered virtual filesystem substrate
// used throughout the DataLife reproduction. It stands in for the real
// storage systems of the paper's Table 2 (NFS, Lustre, BeeGFS, node-local SSD
// and RAM-disk, and a WAN-attached data server).
//
// The filesystem tracks file placement and extent, and each tier carries the
// performance parameters (latency, bandwidth, metadata cost, capacity,
// sharing scope) that the discrete-event simulator uses to charge I/O time.
// File contents are not materialized: DFL analysis depends only on access
// geometry (offsets and lengths), never on bytes.
package vfs

import (
	"fmt"
	"sort"
	"sync"
)

// TierKind classifies a storage tier.
type TierKind uint8

const (
	// NFS is a cluster-shared NFS filesystem (the paper's default tier).
	NFS TierKind = iota
	// Lustre is a cluster-shared parallel filesystem.
	Lustre
	// BeeGFS is a cluster-shared parallel filesystem with caching.
	BeeGFS
	// SSD is a node-local solid-state drive.
	SSD
	// Ramdisk is a node-local RAM-backed filesystem (shm).
	Ramdisk
	// WAN is remote storage reached over a wide-area link (the paper's
	// "Data server" reached via 1 Gb/s WAN).
	WAN
)

var tierKindNames = [...]string{"nfs", "lustre", "beegfs", "ssd", "ramdisk", "wan"}

func (k TierKind) String() string {
	if int(k) < len(tierKindNames) {
		return tierKindNames[k]
	}
	return fmt.Sprintf("tier(%d)", k)
}

// Tier describes one storage tier and its performance envelope.
type Tier struct {
	Name string
	Kind TierKind
	// Node is the owning node for node-local tiers; empty for shared tiers.
	Node string
	// Shared reports whether all nodes see this tier.
	Shared bool
	// LatencyS is the fixed per-operation latency in seconds.
	LatencyS float64
	// ReadBW and WriteBW are aggregate bandwidths in bytes/second. The
	// simulator divides them fairly among concurrent streams.
	ReadBW, WriteBW float64
	// MetaOpS is the cost of a metadata operation (open/create/close/stat).
	MetaOpS float64
	// MetaConcurrency is how many metadata operations the tier services in
	// parallel: each op still takes MetaOpS for the caller, but the server
	// queue advances by MetaOpS/MetaConcurrency per op. 0 means 1 (fully
	// serial, e.g. NFS); latency-dominated servers (WAN) use large values.
	MetaConcurrency int
	// Capacity is the tier size in bytes; 0 means unbounded.
	Capacity int64
	// DegradeKnee and DegradeAlpha model client-count saturation of shared
	// filesystems: with n concurrent streams beyond the knee, aggregate
	// bandwidth becomes BW / (1 + DegradeAlpha*(n-DegradeKnee)). Zero values
	// disable degradation (ideal fair sharing).
	DegradeKnee  int
	DegradeAlpha float64
	// Location optionally names the network-topology location (sim.Topology)
	// the tier lives at, so flows to and from it are routed over links.
	// A sim.Topology's TierLoc entries override it; node-local tiers with no
	// location default to their node's. Empty means the topology default —
	// link-aware transfer accounting then treats the tier as co-located with
	// everything else unplaced.
	Location string

	mu   sync.Mutex
	used int64
}

// Used returns the bytes currently stored on the tier.
func (t *Tier) Used() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// reserve claims n bytes of capacity, failing when the tier would overflow.
func (t *Tier) reserve(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Capacity > 0 && t.used+n > t.Capacity {
		return fmt.Errorf("vfs: tier %s full (%d used + %d requested > %d capacity)",
			t.Name, t.used, n, t.Capacity)
	}
	t.used += n
	return nil
}

// mustReserve re-adds bytes that were just released, bypassing the capacity
// check. Only for restoring state after a failed replace; all callers hold
// the owning FS lock, so the bytes cannot have been claimed in between.
func (t *Tier) mustReserve(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.used += n
}

// release returns n bytes of capacity.
func (t *Tier) release(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.used -= n
	if t.used < 0 {
		t.used = 0
	}
}

// File is one stored object: a path, an extent, and a tier placement.
type File struct {
	Path string
	Size int64
	Tier *Tier
}

// FS is the virtual filesystem: a flat namespace of files over a set of
// registered tiers. All methods are safe for concurrent use.
type FS struct {
	mu    sync.Mutex
	files map[string]*File
	tiers map[string]*Tier
}

// New creates an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]*File), tiers: make(map[string]*Tier)}
}

// AddTier registers a tier. The tier name must be unique.
func (fs *FS) AddTier(t *Tier) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("vfs: tier must have a name")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, dup := fs.tiers[t.Name]; dup {
		return fmt.Errorf("vfs: duplicate tier %q", t.Name)
	}
	fs.tiers[t.Name] = t
	return nil
}

// Tier returns the tier with the given name.
func (fs *FS) Tier(name string) (*Tier, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tiers[name]
	if !ok {
		return nil, fmt.Errorf("vfs: unknown tier %q", name)
	}
	return t, nil
}

// Tiers returns all tiers sorted by name.
func (fs *FS) Tiers() []*Tier {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]*Tier, 0, len(fs.tiers))
	for _, t := range fs.tiers {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Create makes an empty file on the named tier, replacing any existing file
// at the same path (its space is released first).
func (fs *FS) Create(path, tier string) (*File, error) {
	if path == "" {
		return nil, fmt.Errorf("vfs: empty path")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tiers[tier]
	if !ok {
		return nil, fmt.Errorf("vfs: unknown tier %q", tier)
	}
	if old, exists := fs.files[path]; exists {
		old.Tier.release(old.Size)
	}
	f := &File{Path: path, Tier: t}
	fs.files[path] = f
	return f, nil
}

// CreateSized makes a file of the given size on the named tier, reserving
// capacity up front. Useful for seeding workflow inputs.
func (fs *FS) CreateSized(path, tier string, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("vfs: negative size %d", size)
	}
	if path == "" {
		return nil, fmt.Errorf("vfs: empty path")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tiers[tier]
	if !ok {
		return nil, fmt.Errorf("vfs: unknown tier %q", tier)
	}
	// Release a replaced file's bytes before reserving so re-creation at a
	// smaller size succeeds on a nearly-full tier; restore them if the
	// reservation still fails.
	old, exists := fs.files[path]
	if exists {
		old.Tier.release(old.Size)
	}
	if err := t.reserve(size); err != nil {
		if exists {
			old.Tier.mustReserve(old.Size)
		}
		return nil, err
	}
	if exists {
		delete(fs.files, path)
	}
	f := &File{Path: path, Size: size, Tier: t}
	fs.files[path] = f
	return f, nil
}

// Stat returns the file at path.
func (fs *FS) Stat(path string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("vfs: no such file %q", path)
	}
	return f, nil
}

// Lookup returns the file at path, or nil when it does not exist. It is the
// allocation-free Stat for hot paths where absence is expected (create-on-
// write, open-before-create) rather than an error.
func (fs *FS) Lookup(path string) *File {
	fs.mu.Lock()
	f := fs.files[path]
	fs.mu.Unlock()
	return f
}

// Exists reports whether path exists.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Remove deletes a file and releases its tier space.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("vfs: no such file %q", path)
	}
	f.Tier.release(f.Size)
	delete(fs.files, path)
	return nil
}

// Extend grows the file to cover at least [0, end), reserving tier capacity
// for the growth. Shrinking is done via Truncate. The file is mutated under
// fs.mu so concurrent extends of the same file serialize (tier locks nest
// inside fs.mu, matching Create).
func (fs *FS) Extend(path string, end int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("vfs: no such file %q", path)
	}
	if end <= f.Size {
		return nil
	}
	if err := f.Tier.reserve(end - f.Size); err != nil {
		return err
	}
	f.Size = end
	return nil
}

// Truncate sets the file size exactly, releasing or reserving space.
func (fs *FS) Truncate(path string, size int64) error {
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d", size)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("vfs: no such file %q", path)
	}
	switch {
	case size > f.Size:
		if err := f.Tier.reserve(size - f.Size); err != nil {
			return err
		}
	case size < f.Size:
		f.Tier.release(f.Size - size)
	}
	f.Size = size
	return nil
}

// Migrate moves a file to another tier (the mechanics of staging), returning
// the number of bytes that must flow. Time accounting is the caller's job.
func (fs *FS) Migrate(path, tier string) (bytes int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, okF := fs.files[path]
	t, okT := fs.tiers[tier]
	if !okF {
		return 0, fmt.Errorf("vfs: no such file %q", path)
	}
	if !okT {
		return 0, fmt.Errorf("vfs: unknown tier %q", tier)
	}
	if f.Tier == t {
		return 0, nil
	}
	if err := t.reserve(f.Size); err != nil {
		return 0, err
	}
	f.Tier.release(f.Size)
	f.Tier = t
	return f.Size, nil
}

// Files returns all files sorted by path.
func (fs *FS) Files() []*File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]*File, 0, len(fs.files))
	for _, f := range fs.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// VisibleFrom reports whether a file on tier t is reachable from the given
// node: shared tiers always are; node-local tiers only from their own node.
func VisibleFrom(t *Tier, node string) bool {
	return t.Shared || t.Node == node
}

// Common tier constructors with parameters calibrated to commodity hardware.
// Absolute values are stand-ins for the paper's unreported testbed numbers;
// only their ordering (WAN < NFS < Lustre < BeeGFS < SSD < Ramdisk) matters
// for reproducing the case-study shapes.

// NewNFS builds a cluster-shared NFS tier.
func NewNFS(name string) *Tier {
	return &Tier{Name: name, Kind: NFS, Shared: true,
		LatencyS: 2e-3, ReadBW: 300e6, WriteBW: 200e6, MetaOpS: 3e-3}
}

// NewLustre builds a cluster-shared Lustre tier.
func NewLustre(name string) *Tier {
	return &Tier{Name: name, Kind: Lustre, Shared: true,
		LatencyS: 1e-3, ReadBW: 2e9, WriteBW: 1.5e9, MetaOpS: 2e-3, MetaConcurrency: 2}
}

// NewBeeGFS builds a cluster-shared BeeGFS tier. Like real parallel
// filesystems it saturates beyond a client-count knee.
func NewBeeGFS(name string) *Tier {
	return &Tier{Name: name, Kind: BeeGFS, Shared: true,
		LatencyS: 8e-4, ReadBW: 2.5e9, WriteBW: 2e9, MetaOpS: 1.5e-3,
		DegradeKnee: 96, DegradeAlpha: 0.012, MetaConcurrency: 4}
}

// NewSSD builds a node-local SSD tier.
func NewSSD(name, node string) *Tier {
	return &Tier{Name: name, Kind: SSD, Node: node,
		LatencyS: 1e-4, ReadBW: 3e9, WriteBW: 2e9, MetaOpS: 5e-5, MetaConcurrency: 32}
}

// NewRamdisk builds a node-local RAM-disk (shm) tier.
func NewRamdisk(name, node string) *Tier {
	return &Tier{Name: name, Kind: Ramdisk, Node: node,
		LatencyS: 5e-6, ReadBW: 8e9, WriteBW: 8e9, MetaOpS: 5e-6, MetaConcurrency: 64}
}

// NewWAN builds remote storage behind a WAN link of the given bandwidth
// (bytes/second), matching the paper's 1 Gb/s data server. Metadata cost is
// dominated by round-trip latency, which overlaps across clients.
func NewWAN(name string, bw float64) *Tier {
	return &Tier{Name: name, Kind: WAN, Shared: true,
		LatencyS: 30e-3, ReadBW: bw, WriteBW: bw, MetaOpS: 50e-3, MetaConcurrency: 64}
}
