package routing

import "math"

// StaleField marks d's field in p stale with a cut over all its rows, as if a
// fault change had reached every row: the next lookup re-sweeps the whole
// field in place.
func StaleField(p *MCC, d int32) {
	if s := &p.cache.slots[d]; s.field != nil {
		s.cutY, s.cutZ = math.MaxInt16, math.MaxInt16
	}
}
