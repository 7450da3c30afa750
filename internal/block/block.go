// Package block implements the classical rectangular faulty-block (RFB) fault
// models the paper compares against.
//
// Two variants are provided:
//
//   - BoundingBox: faulty nodes are clustered into connected components, every
//     component is covered by its bounding box, and overlapping or adjacent
//     boxes are merged until the boxes are pairwise disjoint and non-adjacent.
//     This is the model drawn in Figure 5(a) of the paper and the usual
//     "rectangular faulty block" of the fault-tolerant routing literature.
//
//   - ConvexityRule: the orthogonal-convexity labelling used by Wu and
//     Boppana–Chalasani: a healthy node that has faulty/disabled neighbours in
//     two (or more) different dimensions is disabled, repeated to a fixpoint.
//     In 2-D the resulting regions are rectangles; in 3-D they are the usual
//     cuboid-ish fault blocks.
//
// Both expose the same Regions interface used by the routing baselines and the
// experiments.
package block

import (
	"fmt"
	"sort"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
)

// Model selects an RFB construction variant.
type Model int

const (
	// BoundingBox merges connected fault clusters into disjoint, non-adjacent
	// bounding boxes.
	BoundingBox Model = iota
	// ConvexityRule disables healthy nodes with faulty/disabled neighbours in
	// two or more different dimensions, to a fixpoint.
	ConvexityRule
)

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == ConvexityRule {
		return "fb-rule"
	}
	return "rfb-bbox"
}

// Regions is the result of building rectangular faulty blocks over a mesh.
type Regions struct {
	// Mesh is the mesh the blocks were computed over.
	Mesh *mesh.Mesh
	// Model is the construction variant.
	Model Model
	// Blocks lists the fault blocks.
	Blocks []*Block

	inBlock []int    // node index -> block id or -1
	avoidW  []uint64 // lazily-built bitset form of inBlock (AvoidWords)
}

// Block is a single rectangular faulty block.
type Block struct {
	ID int
	// Bounds is the block extent. For the ConvexityRule model this is the
	// bounding box of the disabled component (which is rectangular in 2-D).
	Bounds grid.Box
	// Nodes lists the member nodes.
	Nodes []grid.Point
	// FaultyCount and DisabledCount break the membership down.
	FaultyCount, DisabledCount int
}

// Size returns the number of nodes in the block.
func (b *Block) Size() int { return len(b.Nodes) }

// NonFaulty returns the number of healthy nodes swallowed by the block.
func (b *Block) NonFaulty() int { return b.DisabledCount }

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("Block#%d{%v nodes=%d faulty=%d}", b.ID, b.Bounds, len(b.Nodes), b.FaultyCount)
}

// Build constructs the fault blocks of m under the chosen model.
func Build(m *mesh.Mesh, model Model) *Regions {
	switch model {
	case ConvexityRule:
		return buildConvexity(m)
	default:
		return buildBoundingBox(m)
	}
}

// --- Bounding-box model ---------------------------------------------------

func buildBoundingBox(m *mesh.Mesh) *Regions {
	// 1. Bounding boxes of connected fault clusters.
	var boxes []grid.Box
	visited := make([]bool, m.NodeCount())
	var stack []int
	for start := 0; start < m.NodeCount(); start++ {
		if !m.FaultyAt(start) || visited[start] {
			continue
		}
		box := grid.Box{Min: m.Point(start), Max: m.Point(start)}
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p := m.Point(idx)
			box = box.Extend(p)
			for _, d := range m.Directions() {
				q, ok := m.Neighbor(p, d)
				if !ok {
					continue
				}
				qi := m.Index(q)
				if m.FaultyAt(qi) && !visited[qi] {
					visited[qi] = true
					stack = append(stack, qi)
				}
			}
		}
		boxes = append(boxes, box)
	}

	// 2. Merge boxes that overlap or touch (gap 0 means they share or abut a
	// node; merging keeps blocks disjoint and non-adjacent as the model
	// requires).
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(boxes) && !merged; i++ {
			for j := i + 1; j < len(boxes); j++ {
				if boxes[i].Gap(boxes[j]) <= 1 {
					boxes[i] = boxes[i].Union(boxes[j])
					boxes = append(boxes[:j], boxes[j+1:]...)
					merged = true
					break
				}
			}
		}
	}

	return regionsFromBoxes(m, BoundingBox, boxes)
}

func regionsFromBoxes(m *mesh.Mesh, model Model, boxes []grid.Box) *Regions {
	r := &Regions{Mesh: m, Model: model, inBlock: make([]int, m.NodeCount())}
	for i := range r.inBlock {
		r.inBlock[i] = -1
	}
	sort.Slice(boxes, func(i, j int) bool {
		if boxes[i].Min.Z != boxes[j].Min.Z {
			return boxes[i].Min.Z < boxes[j].Min.Z
		}
		if boxes[i].Min.Y != boxes[j].Min.Y {
			return boxes[i].Min.Y < boxes[j].Min.Y
		}
		return boxes[i].Min.X < boxes[j].Min.X
	})
	for _, box := range boxes {
		b := &Block{ID: len(r.Blocks), Bounds: box}
		box.ForEach(func(p grid.Point) {
			if !m.InBounds(p) {
				return
			}
			b.Nodes = append(b.Nodes, p)
			if m.IsFaulty(p) {
				b.FaultyCount++
			} else {
				b.DisabledCount++
			}
			r.inBlock[m.Index(p)] = b.ID
		})
		r.Blocks = append(r.Blocks, b)
	}
	return r
}

// --- Convexity-rule model ---------------------------------------------------

func buildConvexity(m *mesh.Mesh) *Regions {
	disabled := make([]bool, m.NodeCount())
	for i := 0; i < m.NodeCount(); i++ {
		disabled[i] = m.FaultyAt(i)
	}
	blockedAxes := func(p grid.Point) int {
		n := 0
		for _, a := range m.Axes() {
			hit := false
			for _, sign := range []int{1, -1} {
				q := p.WithAxis(a, p.Axis(a)+sign)
				if m.InBounds(q) && disabled[m.Index(q)] {
					hit = true
					break
				}
			}
			if hit {
				n++
			}
		}
		return n
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < m.NodeCount(); i++ {
			if disabled[i] {
				continue
			}
			if blockedAxes(m.Point(i)) >= 2 {
				disabled[i] = true
				changed = true
			}
		}
	}

	// Connected components of disabled nodes become the blocks.
	r := &Regions{Mesh: m, Model: ConvexityRule, inBlock: make([]int, m.NodeCount())}
	for i := range r.inBlock {
		r.inBlock[i] = -1
	}
	visited := make([]bool, m.NodeCount())
	var stack []int
	for start := 0; start < m.NodeCount(); start++ {
		if !disabled[start] || visited[start] {
			continue
		}
		b := &Block{ID: len(r.Blocks), Bounds: grid.Box{Min: m.Point(start), Max: m.Point(start)}}
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p := m.Point(idx)
			b.Nodes = append(b.Nodes, p)
			b.Bounds = b.Bounds.Extend(p)
			if m.FaultyAt(idx) {
				b.FaultyCount++
			} else {
				b.DisabledCount++
			}
			r.inBlock[idx] = b.ID
			for _, d := range m.Directions() {
				q, ok := m.Neighbor(p, d)
				if !ok {
					continue
				}
				qi := m.Index(q)
				if disabled[qi] && !visited[qi] {
					visited[qi] = true
					stack = append(stack, qi)
				}
			}
		}
		sort.Slice(b.Nodes, func(i, j int) bool { return m.Index(b.Nodes[i]) < m.Index(b.Nodes[j]) })
		r.Blocks = append(r.Blocks, b)
	}
	return r
}

// --- Shared queries ---------------------------------------------------------

// Contains reports whether p lies inside any fault block.
func (r *Regions) Contains(p grid.Point) bool {
	return r.Mesh.InBounds(p) && r.inBlock[r.Mesh.Index(p)] >= 0
}

// AvoidWords returns the union of all blocks as a bitset over dense node IDs,
// the obstacle form the reachability sweep consumes. Built once on first use:
// a Regions snapshot is immutable (fault changes rebuild it wholesale). The
// caller must not mutate the slice.
func (r *Regions) AvoidWords() []uint64 {
	if r.avoidW == nil {
		w := make([]uint64, (len(r.inBlock)+63)/64)
		for i, b := range r.inBlock {
			if b >= 0 {
				w[i>>6] |= 1 << uint(i&63)
			}
		}
		r.avoidW = w
	}
	return r.avoidW
}

// BlockOf returns the block containing p, or nil.
func (r *Regions) BlockOf(p grid.Point) *Block {
	if !r.Mesh.InBounds(p) {
		return nil
	}
	id := r.inBlock[r.Mesh.Index(p)]
	if id < 0 {
		return nil
	}
	return r.Blocks[id]
}

// TotalNodes returns the total number of nodes across all blocks.
func (r *Regions) TotalNodes() int {
	n := 0
	for _, b := range r.Blocks {
		n += b.Size()
	}
	return n
}

// TotalNonFaulty returns the number of healthy nodes swallowed by blocks (the
// baseline side of the paper's first evaluation metric).
func (r *Regions) TotalNonFaulty() int {
	n := 0
	for _, b := range r.Blocks {
		n += b.NonFaulty()
	}
	return n
}

// BlockedByUnion reports whether the union of all blocks blocks every
// monotone path from `from` to `to`.
func (r *Regions) BlockedByUnion(from, to grid.Point) bool {
	return !minimal.Exists(r.Mesh, r.AvoidWords(), from, to)
}
