package mesh

import "testing"

// TestSlabPartitionCoversExactly pins the partition invariants every sharded
// run depends on: the slabs are non-empty, contiguous, ascending, aligned to
// whole layers, and concatenate to exactly [0, NodeCount).
func TestSlabPartitionCoversExactly(t *testing.T) {
	cases := []struct {
		name   string
		m      *Mesh
		shards int
		stride int32 // layer size: slab boundaries must be multiples of it
	}{
		{"3d-even", New3D(8, 8, 8), 4, 64},
		{"3d-uneven", New3D(10, 10, 10), 3, 100},
		{"3d-one-layer-each", New3D(4, 4, 6), 6, 16},
		{"2d", New2D(16, 5), 2, 16},
		{"single", New3D(5, 5, 5), 1, 25},
	}
	for _, tc := range cases {
		slabs := SlabPartition(tc.m, tc.shards)
		if len(slabs) != tc.shards {
			t.Errorf("%s: got %d slabs, want %d", tc.name, len(slabs), tc.shards)
			continue
		}
		var next int32
		for i, s := range slabs {
			if s.Lo != next {
				t.Errorf("%s: slab %d starts at %d, want %d (gap or overlap)", tc.name, i, s.Lo, next)
			}
			if s.Len() <= 0 {
				t.Errorf("%s: slab %d is empty (%+v)", tc.name, i, s)
			}
			if s.Lo%tc.stride != 0 || s.Hi%tc.stride != 0 {
				t.Errorf("%s: slab %d = %+v not aligned to the %d-node layer stride", tc.name, i, s, tc.stride)
			}
			next = s.Hi
		}
		if int(next) != tc.m.NodeCount() {
			t.Errorf("%s: slabs end at %d, want NodeCount %d", tc.name, next, tc.m.NodeCount())
		}
	}
}

// TestSlabPartitionBalanced: layer counts differ by at most one across slabs.
func TestSlabPartitionBalanced(t *testing.T) {
	m := New3D(6, 6, 11)
	slabs := SlabPartition(m, 4)
	minLen, maxLen := slabs[0].Len(), slabs[0].Len()
	for _, s := range slabs[1:] {
		if s.Len() < minLen {
			minLen = s.Len()
		}
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if layer := 36; maxLen-minLen > layer {
		t.Errorf("slab sizes range %d..%d nodes; want within one %d-node layer", minLen, maxLen, layer)
	}
}

// TestSlabPartitionClampsToLayers: a request beyond the layer count yields one
// slab per layer, never an empty slab (callers size pools from the result).
func TestSlabPartitionClampsToLayers(t *testing.T) {
	m := New3D(4, 4, 3)
	if got := len(SlabPartition(m, 16)); got != 3 {
		t.Errorf("16-way split of a 3-layer mesh gave %d slabs, want 3", got)
	}
	m2 := New2D(9, 4)
	if got := len(SlabPartition(m2, 0)); got != 1 {
		t.Errorf("0-way split gave %d slabs, want 1", got)
	}
}
