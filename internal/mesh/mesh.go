// Package mesh implements the k-ary 2-D / 3-D mesh-connected topology the
// paper targets: nodes addressed by integer coordinates, links between nodes
// whose addresses differ by one in exactly one dimension, and a mutable set of
// faulty nodes. Link faults are modelled, as in the paper, by disabling the
// adjacent nodes (see package fault).
//
// Internally the mesh is index-first: every node has a dense int32 ID (its
// row-major index), fault status lives in a bitset, a neighbour's ID is the
// ID plus a per-direction stride behind a one-byte per-node border mask, and
// the ID → coordinate mapping is arithmetic. The grid.Point API remains the
// public face; the hot paths of package simnet and the traffic engine run
// entirely on the dense IDs.
package mesh

import (
	"fmt"
	"math/bits"

	"mccmesh/internal/grid"
)

// NoNeighbor marks a missing neighbour: the direction leaves the mesh.
const NoNeighbor int32 = -1

// Dims describes the extent of a mesh along each axis. A 2-D mesh has Z == 1.
type Dims struct {
	X, Y, Z int
}

// String implements fmt.Stringer.
func (d Dims) String() string {
	if d.Z <= 1 {
		return fmt.Sprintf("%dx%d", d.X, d.Y)
	}
	return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
}

// Nodes returns the total number of nodes in a mesh with these dimensions.
func (d Dims) Nodes() int { return d.X * d.Y * d.Z }

// Is2D reports whether the dimensions describe a 2-D mesh.
func (d Dims) Is2D() bool { return d.Z <= 1 }

// Valid reports whether every extent is at least 1 (and at least 2 on the
// first two axes, the minimum for a mesh to have links).
func (d Dims) Valid() bool { return d.X >= 1 && d.Y >= 1 && d.Z >= 1 }

// Mesh is a k-ary 2-D or 3-D mesh with per-node fault status.
//
// The zero value is not usable; construct meshes with New2D or New3D.
type Mesh struct {
	dims Dims
	// faulty is a bitset over dense node IDs (bit i = node i is faulty).
	faulty []uint64
	nfault int
	// inside[id] has bit d set when direction d from node id stays inside
	// the mesh; stride[d] is the ID offset of a step in direction d. Both are
	// immutable after construction.
	inside []uint8
	stride [grid.NumDirections]int32
}

// New3D returns a fault-free 3-D mesh with the given extents.
func New3D(x, y, z int) *Mesh {
	return newMesh(Dims{x, y, z})
}

// New2D returns a fault-free 2-D mesh with the given extents.
func New2D(x, y int) *Mesh {
	return newMesh(Dims{x, y, 1})
}

// NewCube returns a k × k × k 3-D mesh.
func NewCube(k int) *Mesh {
	return New3D(k, k, k)
}

func newMesh(d Dims) *Mesh {
	if !d.Valid() {
		panic(fmt.Sprintf("mesh: invalid dimensions %v", d))
	}
	n := d.Nodes()
	m := &Mesh{
		dims:   d,
		faulty: make([]uint64, (n+63)/64),
		inside: make([]uint8, n),
	}
	for dir := range grid.NumDirections {
		q := grid.Direction(dir).Delta()
		m.stride[dir] = int32(q.X + d.X*(q.Y+d.Y*q.Z))
	}
	i := 0
	m.ForEach(func(p grid.Point) {
		for dir := range grid.NumDirections {
			if m.InBounds(grid.Step(p, grid.Direction(dir))) {
				m.inside[i] |= 1 << dir
			}
		}
		i++
	})
	return m
}

// Dims returns the mesh dimensions.
func (m *Mesh) Dims() Dims { return m.dims }

// Is2D reports whether the mesh is two-dimensional (Z extent 1).
func (m *Mesh) Is2D() bool { return m.dims.Is2D() }

// Axes returns the active axes of the mesh: {X,Y} for 2-D, {X,Y,Z} for 3-D.
func (m *Mesh) Axes() []grid.Axis {
	if m.Is2D() {
		return grid.Axes2D
	}
	return grid.Axes3D
}

// Directions returns the neighbouring directions of the mesh: four in 2-D,
// six in 3-D.
func (m *Mesh) Directions() []grid.Direction {
	if m.Is2D() {
		return grid.Directions2D
	}
	return grid.Directions3D
}

// NodeCount returns the total number of nodes.
func (m *Mesh) NodeCount() int { return len(m.inside) }

// FaultCount returns the number of faulty nodes.
func (m *Mesh) FaultCount() int { return m.nfault }

// Bounds returns the inclusive box of valid coordinates.
func (m *Mesh) Bounds() grid.Box {
	return grid.Box{Min: grid.Point{}, Max: grid.Point{X: m.dims.X - 1, Y: m.dims.Y - 1, Z: m.dims.Z - 1}}
}

// InBounds reports whether p is a valid node address.
func (m *Mesh) InBounds(p grid.Point) bool {
	return p.X >= 0 && p.X < m.dims.X &&
		p.Y >= 0 && p.Y < m.dims.Y &&
		p.Z >= 0 && p.Z < m.dims.Z
}

// Index returns the dense index of p. It panics if p is out of bounds.
func (m *Mesh) Index(p grid.Point) int {
	if !m.InBounds(p) {
		panic(fmt.Sprintf("mesh: point %v out of bounds for %v", p, m.dims))
	}
	return p.X + m.dims.X*(p.Y+m.dims.Y*p.Z)
}

// ID returns the dense node ID of p, or NoNeighbor when p is out of bounds.
// It is the non-panicking form of Index used on the simulator's fast path.
func (m *Mesh) ID(p grid.Point) int32 {
	if !m.InBounds(p) {
		return NoNeighbor
	}
	return int32(p.X + m.dims.X*(p.Y+m.dims.Y*p.Z))
}

// Point is the inverse of Index, by arithmetic: no per-node table is read.
// It panics if idx is not a node ID.
func (m *Mesh) Point(idx int) grid.Point {
	if uint(idx) >= uint(len(m.inside)) {
		panic("mesh: node ID out of range")
	}
	i, x, y := uint32(idx), uint32(m.dims.X), uint32(m.dims.Y)
	row := i / x
	return grid.Point{X: int(i - row*x), Y: int(row % y), Z: int(row / y)}
}

// NeighborID returns the dense ID of the neighbour of node id in direction d,
// or NoNeighbor when that direction leaves the mesh: the ID plus the
// direction's stride, behind the node's one-byte border mask. Fault status is
// not consulted.
func (m *Mesh) NeighborID(id int32, d grid.Direction) int32 {
	if m.inside[id]>>d&1 == 0 {
		return NoNeighbor
	}
	return id + m.stride[d]
}

// SetFaulty marks p as faulty (true) or healthy (false).
func (m *Mesh) SetFaulty(p grid.Point, faulty bool) {
	idx := m.Index(p)
	word, bit := idx>>6, uint64(1)<<(idx&63)
	if m.faulty[word]&bit != 0 == faulty {
		return
	}
	if faulty {
		m.faulty[word] |= bit
		m.nfault++
	} else {
		m.faulty[word] &^= bit
		m.nfault--
	}
}

// AddFaults marks every listed point faulty.
func (m *Mesh) AddFaults(pts ...grid.Point) {
	for _, p := range pts {
		m.SetFaulty(p, true)
	}
}

// RemoveFaults clears the fault bit of every listed point — the repair half of
// the fault-churn cycle. Points that are healthy already are left untouched.
func (m *Mesh) RemoveFaults(pts ...grid.Point) {
	for _, p := range pts {
		m.SetFaulty(p, false)
	}
}

// IsFaulty reports whether p is a faulty node. Out-of-bounds points are not
// faulty (they simply do not exist).
func (m *Mesh) IsFaulty(p grid.Point) bool {
	if !m.InBounds(p) {
		return false
	}
	return m.FaultyAt(p.X + m.dims.X*(p.Y+m.dims.Y*p.Z))
}

// IsHealthy reports whether p is an in-bounds, non-faulty node.
func (m *Mesh) IsHealthy(p grid.Point) bool {
	return m.InBounds(p) && !m.IsFaulty(p)
}

// FaultyAt reports the fault flag by dense index.
func (m *Mesh) FaultyAt(idx int) bool {
	return m.faulty[idx>>6]&(uint64(1)<<(idx&63)) != 0
}

// FaultyWords exposes the fault bitset (bit i = node i is faulty) for
// word-level consumers — the routing decision-mask sweep reads 64 nodes'
// status at a time from it. Callers must not mutate the returned slice, and
// must not hold it across SetFaulty calls that could be concurrent.
func (m *Mesh) FaultyWords() []uint64 { return m.faulty }

// Faults returns the coordinates of all faulty nodes in index order.
func (m *Mesh) Faults() []grid.Point {
	out := make([]grid.Point, 0, m.nfault)
	for w, word := range m.faulty {
		for ; word != 0; word &= word - 1 {
			out = append(out, m.Point(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// ClearFaults removes every fault.
func (m *Mesh) ClearFaults() {
	for i := range m.faulty {
		m.faulty[i] = 0
	}
	m.nfault = 0
}

// Clone returns a deep copy of the mesh. The immutable topology tables
// (border masks) are shared; the fault bitset is copied.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{dims: m.dims, faulty: make([]uint64, len(m.faulty)), nfault: m.nfault, inside: m.inside, stride: m.stride}
	copy(c.faulty, m.faulty)
	return c
}

// Neighbors appends to dst the in-bounds neighbours of p (regardless of fault
// status) and returns the extended slice. The order follows
// Directions3D/Directions2D.
func (m *Mesh) Neighbors(dst []grid.Point, p grid.Point) []grid.Point {
	for _, d := range m.Directions() {
		q := grid.Step(p, d)
		if m.InBounds(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// Neighbor returns the neighbour of p in direction d and whether it exists.
func (m *Mesh) Neighbor(p grid.Point, d grid.Direction) (grid.Point, bool) {
	q := grid.Step(p, d)
	return q, m.InBounds(q)
}

// Degree returns the number of in-bounds neighbours of p.
func (m *Mesh) Degree(p grid.Point) int {
	return bits.OnesCount8(m.inside[m.Index(p)])
}

// ForEach calls fn for every node of the mesh in index order.
func (m *Mesh) ForEach(fn func(grid.Point)) {
	for z := 0; z < m.dims.Z; z++ {
		for y := 0; y < m.dims.Y; y++ {
			for x := 0; x < m.dims.X; x++ {
				fn(grid.Point{X: x, Y: y, Z: z})
			}
		}
	}
}

// HealthyNodes returns all non-faulty node coordinates in index order.
func (m *Mesh) HealthyNodes() []grid.Point {
	out := make([]grid.Point, 0, m.NodeCount()-m.nfault)
	for i := range m.NodeCount() {
		if !m.FaultyAt(i) {
			out = append(out, m.Point(i))
		}
	}
	return out
}

// Diameter returns the network diameter (k-1)*n of the mesh.
func (m *Mesh) Diameter() int {
	d := (m.dims.X - 1) + (m.dims.Y - 1)
	if !m.Is2D() {
		d += m.dims.Z - 1
	}
	return d
}
