// Package bitset implements compressed integer sets in the roaring
// style: 64-bit keys are split into a 48-bit high prefix and a 16-bit
// low half, and each prefix's population lives in whichever of three
// container forms is smallest — a sorted uint16 array for sparse data,
// a packed 1024-word bitmap for dense data, or [start,last] run
// intervals for contiguous ranges. Set algebra (And/Or/AndNot) runs
// container-against-container, word-at-a-time with 64-bit popcounts on
// the bitmap forms, instead of element-at-a-time.
//
// The catalog's Figure-4 query pipeline uses Sets as posting lists over
// row IDs and attribute-instance keys; see internal/catalog.
//
// Concurrency contract: a Set under construction (Add/AddRange/
// Optimize) belongs to one goroutine. A completed Set may be shared
// read-only by any number of goroutines — And/Or/AndNot/Iterate/
// Contains/Card never mutate their receiver or operand — which is what
// lets the catalog cache posting lists and hand one Set to every
// concurrent reader at the same epoch.
package bitset

import (
	"fmt"
	"sort"
)

// Set is a compressed set of uint64 keys. The zero value is NOT ready
// to use; call New. A nil Set behaves as empty for read operations.
type Set struct {
	chunks []chunk
	// last caches the index of the most recently written chunk, so
	// clustered insert streams (ascending row IDs, per-object instance
	// keys) skip the binary search.
	last int
}

// chunk pairs one 48-bit high prefix with its low-16-bit container.
type chunk struct {
	hi uint64
	c  *container
}

// New returns an empty set.
func New() *Set { return &Set{} }

// find locates the chunk for hi, returning (index, true) on a hit or
// the insertion index and false. It never writes the set — only Add
// and AddRange move the last-chunk hint — so lookups are safe on sets
// shared read-only across goroutines.
func (s *Set) find(hi uint64) (int, bool) {
	if s.last < len(s.chunks) && s.chunks[s.last].hi == hi {
		return s.last, true
	}
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].hi >= hi })
	return i, i < len(s.chunks) && s.chunks[i].hi == hi
}

// Add inserts key.
func (s *Set) Add(key uint64) {
	hi, lo := key>>chunkBits, uint16(key)
	i, ok := s.find(hi)
	if !ok {
		s.chunks = append(s.chunks, chunk{})
		copy(s.chunks[i+1:], s.chunks[i:])
		s.chunks[i] = chunk{hi: hi, c: newArray()}
	}
	s.last = i
	s.chunks[i].c.add(lo)
}

// AddRange inserts every key in [lo, hi] (inclusive).
func (s *Set) AddRange(lo, hi uint64) {
	if lo > hi {
		return
	}
	for cur := lo >> chunkBits; cur <= hi>>chunkBits; cur++ {
		from, to := uint16(0), uint16(1<<chunkBits-1)
		if cur == lo>>chunkBits {
			from = uint16(lo)
		}
		if cur == hi>>chunkBits {
			to = uint16(hi)
		}
		i, ok := s.find(cur)
		if !ok {
			s.chunks = append(s.chunks, chunk{})
			copy(s.chunks[i+1:], s.chunks[i:])
			s.chunks[i] = chunk{hi: cur, c: newArray()}
		}
		s.last = i
		s.chunks[i].c.addRange(from, to)
	}
}

// Contains reports whether key is present.
func (s *Set) Contains(key uint64) bool {
	if s == nil {
		return false
	}
	i, ok := s.find(key >> chunkBits)
	return ok && s.chunks[i].c.contains(uint16(key))
}

// Card returns the number of keys present.
func (s *Set) Card() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, ch := range s.chunks {
		n += ch.c.card
	}
	return n
}

// IsEmpty reports whether the set has no keys.
func (s *Set) IsEmpty() bool { return s == nil || len(s.chunks) == 0 }

// And returns the intersection s ∩ o as a new set; neither operand is
// mutated. Matching chunks intersect container-wise (word-at-a-time on
// bitmap forms); chunks present on one side only are dropped without
// touching their containers.
func (s *Set) And(o *Set) *Set {
	out := New()
	if s == nil || o == nil {
		return out
	}
	i, j := 0, 0
	for i < len(s.chunks) && j < len(o.chunks) {
		a, b := s.chunks[i], o.chunks[j]
		switch {
		case a.hi < b.hi:
			i++
		case a.hi > b.hi:
			j++
		default:
			if c := andContainers(a.c, b.c); c != nil {
				out.chunks = append(out.chunks, chunk{hi: a.hi, c: c})
			}
			i++
			j++
		}
	}
	return out
}

// Or returns the union s ∪ o as a new set; neither operand is mutated.
func (s *Set) Or(o *Set) *Set {
	out := New()
	var sc, oc []chunk
	if s != nil {
		sc = s.chunks
	}
	if o != nil {
		oc = o.chunks
	}
	i, j := 0, 0
	for i < len(sc) || j < len(oc) {
		switch {
		case j >= len(oc) || (i < len(sc) && sc[i].hi < oc[j].hi):
			out.chunks = append(out.chunks, chunk{hi: sc[i].hi, c: sc[i].c.clone()})
			i++
		case i >= len(sc) || oc[j].hi < sc[i].hi:
			out.chunks = append(out.chunks, chunk{hi: oc[j].hi, c: oc[j].c.clone()})
			j++
		default:
			out.chunks = append(out.chunks, chunk{hi: sc[i].hi, c: orContainers(sc[i].c, oc[j].c)})
			i++
			j++
		}
	}
	return out
}

// AndNot returns the difference s \ o as a new set; neither operand is
// mutated.
func (s *Set) AndNot(o *Set) *Set {
	out := New()
	if s == nil {
		return out
	}
	j := 0
	var oc []chunk
	if o != nil {
		oc = o.chunks
	}
	for _, a := range s.chunks {
		for j < len(oc) && oc[j].hi < a.hi {
			j++
		}
		if j < len(oc) && oc[j].hi == a.hi {
			if c := andNotContainers(a.c, oc[j].c); c != nil {
				out.chunks = append(out.chunks, chunk{hi: a.hi, c: c})
			}
			continue
		}
		out.chunks = append(out.chunks, chunk{hi: a.hi, c: a.c.clone()})
	}
	return out
}

// Iterate calls fn for every key in ascending order until fn returns
// false.
func (s *Set) Iterate(fn func(key uint64) bool) {
	if s == nil {
		return
	}
	for _, ch := range s.chunks {
		if !ch.c.iterate(ch.hi, fn) {
			return
		}
	}
}

// Slice returns the keys in ascending order.
func (s *Set) Slice() []uint64 {
	out := make([]uint64, 0, s.Card())
	s.Iterate(func(k uint64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clone deep-copies the set.
func (s *Set) Clone() *Set {
	out := New()
	if s == nil {
		return out
	}
	out.chunks = make([]chunk, len(s.chunks))
	for i, ch := range s.chunks {
		out.chunks[i] = chunk{hi: ch.hi, c: ch.c.clone()}
	}
	return out
}

// Optimize rewrites every container into its smallest representation
// (array vs packed bitmap vs runs). Call it once after bulk
// construction, before a set is cached or shared; set algebra results
// are already normalized and do not need it.
func (s *Set) Optimize() {
	if s == nil {
		return
	}
	for _, ch := range s.chunks {
		ch.c.optimize()
	}
}

// Stats describes a set's physical shape: how many containers of each
// kind hold its keys.
type Stats struct {
	Card   int `json:"card"`
	Array  int `json:"array"`
	Bitmap int `json:"bitmap"`
	Run    int `json:"run"`
}

// Containers returns the total container count.
func (st Stats) Containers() int { return st.Array + st.Bitmap + st.Run }

// String renders the shape compactly, e.g. "card=1520 array=2 run=1".
func (st Stats) String() string {
	out := fmt.Sprintf("card=%d", st.Card)
	if st.Array > 0 {
		out += fmt.Sprintf(" array=%d", st.Array)
	}
	if st.Bitmap > 0 {
		out += fmt.Sprintf(" bitmap=%d", st.Bitmap)
	}
	if st.Run > 0 {
		out += fmt.Sprintf(" run=%d", st.Run)
	}
	return out
}

// Stats reports the set's cardinality and container mix.
func (s *Set) Stats() Stats {
	var st Stats
	if s == nil {
		return st
	}
	for _, ch := range s.chunks {
		st.Card += ch.c.card
		switch ch.c.kind {
		case arrayKind:
			st.Array++
		case bitmapKind:
			st.Bitmap++
		case runKind:
			st.Run++
		}
	}
	return st
}
