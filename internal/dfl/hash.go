package dfl

import (
	"encoding/binary"
	"math"
)

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// hasher accumulates an FNV-1a 64 hash over typed fields.
type hasher uint64

func (h *hasher) bytes(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x = (x ^ uint64(b)) * fnv64Prime
	}
	*h = hasher(x)
}

func (h *hasher) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.bytes(buf[:])
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.bytes([]byte(s))
}

func (h *hasher) id(id ID) {
	h.bytes([]byte{byte(id.Kind)})
	h.str(id.Name)
}

// fmix64 is the splitmix64/MurmurHash3 finalizer: a cheap bijective mixer
// that spreads per-item FNV hashes over the full 64-bit space before they are
// summed, so the multiset combination below stays collision-resistant.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// vertexHash is the content hash of one vertex: its ID plus every lifecycle
// property. Items are hashed independently so the graph fingerprint can be
// maintained incrementally — adding or editing a vertex adjusts one term.
func vertexHash(v *Vertex) uint64 {
	h := hasher(fnv64Offset)
	h.id(v.ID)
	switch v.ID.Kind {
	case TaskVertex:
		p := v.Task
		h.f64(p.Lifetime)
		h.u64(p.ReadOps)
		h.u64(p.WriteOps)
		h.u64(p.InVolume)
		h.u64(p.OutVolume)
		h.f64(p.ReadLatency)
		h.f64(p.WriteLatency)
		h.u64(uint64(p.Instances))
	case DataVertex:
		p := v.Data
		h.u64(uint64(p.Size))
		h.f64(p.Lifetime)
		h.u64(uint64(p.Instances))
	}
	return fmix64(uint64(h))
}

// edgeHash is the content hash of one edge: endpoints, kind, and flow
// properties, independent of the edge's position in any snapshot order.
func edgeHash(e *Edge) uint64 {
	h := hasher(fnv64Offset)
	h.id(e.Src)
	h.id(e.Dst)
	h.bytes([]byte{byte(e.Kind)})
	p := e.Props
	h.u64(p.Ops)
	h.u64(p.Volume)
	h.u64(p.Footprint)
	h.f64(p.Latency)
	h.f64(p.MeanDistance)
	h.f64(p.ZeroDistFrac)
	h.f64(p.SmallDistFrac)
	h.u64(uint64(p.Samples))
	return fmix64(uint64(h))
}

// combineFingerprint folds the multiset sums and the set sizes into the final
// 64-bit content hash. Because the per-item sums are commutative (wrapping
// uint64 addition), two graphs with identical vertex/edge content hash equal
// regardless of construction order, and an incremental snapshot can derive
// the next fingerprint from the previous sums in O(delta): add the hashes of
// new items, subtract the old and add the new hash of edited items.
func combineFingerprint(nVerts, nEdges int, vertSum, edgeSum uint64) uint64 {
	h := hasher(fnv64Offset)
	h.u64(uint64(nVerts))
	h.u64(vertSum)
	h.u64(uint64(nEdges))
	h.u64(edgeSum)
	return fmix64(uint64(h))
}

// fingerprintSums computes the multiset vertex/edge hash sums of a snapshot
// from scratch — the full-rebuild reference the incremental path is derived
// from (and equivalence-tested against).
func fingerprintSums(ix *Index) (vertSum, edgeSum uint64) {
	for _, v := range ix.verts {
		vertSum += vertexHash(v)
	}
	for _, v := range ix.extraVerts {
		vertSum += vertexHash(v)
	}
	for _, e := range ix.outEdges {
		edgeSum += edgeHash(e)
	}
	for _, e := range ix.extraEdges {
		edgeSum += edgeHash(e)
	}
	return vertSum, edgeSum
}

// Fingerprint returns the graph's 64-bit content hash (see Index.Fingerprint).
func (g *Graph) Fingerprint() uint64 { return g.Index().Fingerprint() }
