package mesh

// Spatial partitioning for sharded simulation: the mesh is split into slabs of
// whole layers perpendicular to its last axis. Node IDs are row-major
// (idx = x + X*(y + Y*z)), so a run of consecutive layers is exactly one
// contiguous dense-ID interval and a shard's node set needs no per-node table.

// IDRange is a half-open interval [Lo, Hi) of dense node IDs.
type IDRange struct {
	Lo, Hi int32
}

// Len returns the number of IDs in the range.
func (r IDRange) Len() int { return int(r.Hi - r.Lo) }

// SlabPartition splits the mesh into at most shards contiguous slabs of whole
// layers: Z-layers of X*Y nodes for a 3-D mesh, Y-rows of X nodes for a 2-D
// mesh. Layers are distributed as evenly as possible (slab sizes differ by at
// most one layer), every slab is non-empty, and concatenating the returned
// ranges in order covers [0, NodeCount) exactly. When the mesh has fewer
// layers than requested shards, the effective shard count is the layer count —
// callers size their worker pools from len(result), not from the request.
func SlabPartition(m *Mesh, shards int) []IDRange {
	layers, stride := m.dims.Z, m.dims.X*m.dims.Y
	if m.Is2D() {
		layers, stride = m.dims.Y, m.dims.X
	}
	if shards > layers {
		shards = layers
	}
	if shards < 1 {
		shards = 1
	}
	out := make([]IDRange, shards)
	for i := range out {
		lo := i * layers / shards
		hi := (i + 1) * layers / shards
		out[i] = IDRange{Lo: int32(lo * stride), Hi: int32(hi * stride)}
	}
	return out
}
