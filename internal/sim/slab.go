package sim

import (
	"slices"
	"sync"
)

// SlabBound is the most bytes the recycler below lets rest.
const SlabBound = 64 << 20

// slabs is the one recycler of a machine's big host memory (platters,
// the buffer cache's slab) between a released machine and the next one
// built. It holds only all-zero memory matched by size — no identity, no
// simulated state — so which slab a build draws cannot show in a result.
var slabs struct {
	sync.Mutex
	rest  [][]byte
	bytes int
}

// GetSlab returns n zero bytes: a resting slab of exactly that size if
// there is one, fresh memory otherwise.
func GetSlab(n int) []byte {
	slabs.Lock()
	defer slabs.Unlock()
	for i, s := range slabs.rest {
		if len(s) == n {
			slabs.rest, slabs.bytes = slices.Delete(slabs.rest, i, i+1), slabs.bytes-n
			return s
		}
	}
	return make([]byte, n)
}

// PutSlab rests s, which the caller has zeroed and let go of. Past
// SlabBound the longest-resting slabs are dropped (s too, if that big).
func PutSlab(s []byte) {
	slabs.Lock()
	defer slabs.Unlock()
	slabs.rest, slabs.bytes = append(slabs.rest, s), slabs.bytes+len(s)
	for slabs.bytes > SlabBound {
		slabs.bytes -= len(slabs.rest[0])
		slabs.rest = slices.Delete(slabs.rest, 0, 1)
	}
}

// TakeSlabs empties the recycler and returns what rested, for tests to scan.
func TakeSlabs() (all [][]byte) {
	slabs.Lock()
	defer slabs.Unlock()
	all, slabs.rest, slabs.bytes = slabs.rest, nil, 0
	return all
}
