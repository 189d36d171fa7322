package bitset

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracle is the reference implementation every Set operation is
// cross-checked against: a plain map of ints.
type oracle map[uint64]struct{}

func (o oracle) add(k uint64) { o[k] = struct{}{} }

func (o oracle) addRange(lo, hi uint64) {
	for k := lo; k <= hi; k++ {
		o[k] = struct{}{}
	}
}

func (o oracle) and(p oracle) oracle {
	out := oracle{}
	for k := range o {
		if _, ok := p[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func (o oracle) or(p oracle) oracle {
	out := oracle{}
	for k := range o {
		out[k] = struct{}{}
	}
	for k := range p {
		out[k] = struct{}{}
	}
	return out
}

func (o oracle) andNot(p oracle) oracle {
	out := oracle{}
	for k := range o {
		if _, ok := p[k]; !ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func (o oracle) slice() []uint64 {
	out := make([]uint64, 0, len(o))
	for k := range o {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// checkEqual verifies s against o on every read surface: Card, Slice
// ordering, Contains probes (present and absent), and Stats card.
func checkEqual(t *testing.T, label string, s *Set, o oracle) {
	t.Helper()
	if got, want := s.Card(), len(o); got != want {
		t.Fatalf("%s: Card = %d, oracle has %d", label, got, want)
	}
	got, want := s.Slice(), o.slice()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Slice mismatch\n got %v\nwant %v", label, trunc(got), trunc(want))
	}
	if st := s.Stats(); st.Card != len(o) {
		t.Fatalf("%s: Stats.Card = %d, oracle has %d", label, st.Card, len(o))
	}
	for i, k := range want {
		if i%7 == 0 && !s.Contains(k) {
			t.Fatalf("%s: Contains(%d) = false for present key", label, k)
		}
		if !s.Contains(k + 1) {
			if _, ok := o[k+1]; ok {
				t.Fatalf("%s: Contains(%d) = false for present key", label, k+1)
			}
		} else if _, ok := o[k+1]; !ok {
			t.Fatalf("%s: Contains(%d) = true for absent key", label, k+1)
		}
	}
}

func trunc(v []uint64) []uint64 {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}

// patterns generates key sets exercising all three container forms and
// cross-chunk layouts.
func patterns(rng *rand.Rand) []([]uint64) {
	var out [][]uint64

	// Sparse: a few keys scattered across distant chunks (array form).
	sparse := make([]uint64, 0, 50)
	for i := 0; i < 50; i++ {
		sparse = append(sparse, rng.Uint64()>>rng.Intn(40))
	}
	out = append(out, sparse)

	// Dense: > maxArrayCard keys inside one chunk (bitmap form).
	dense := make([]uint64, 0, 6000)
	base := uint64(rng.Intn(4)) << chunkBits
	for i := 0; i < 6000; i++ {
		dense = append(dense, base|uint64(rng.Intn(1<<chunkBits)))
	}
	out = append(out, dense)

	// Runs: contiguous ID blocks, like sequentially assigned row IDs.
	runs := make([]uint64, 0, 3000)
	next := uint64(rng.Intn(100))
	for len(runs) < 3000 {
		blockLen := 1 + rng.Intn(400)
		for i := 0; i < blockLen && len(runs) < 3000; i++ {
			runs = append(runs, next)
			next++
		}
		next += uint64(1 + rng.Intn(1<<17)) // occasionally hop chunks
	}
	out = append(out, runs)

	// Boundary values around chunk edges and the uint16 extremes.
	out = append(out, []uint64{0, 1, 63, 64, 65, 0xFFFF, 0x10000, 0x10001,
		0x1FFFF, 0x20000, 1<<32 - 1, 1 << 32, 1<<48 - 1, 1 << 48, 1<<63 + 5})

	return out
}

func buildPair(keys []uint64) (*Set, oracle) {
	s, o := New(), oracle{}
	for _, k := range keys {
		s.Add(k)
		o.add(k)
	}
	return s, o
}

func TestAddContainsAcrossPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for pi, keys := range patterns(rng) {
		s, o := buildPair(keys)
		checkEqual(t, "built", s, o)
		s.Optimize()
		checkEqual(t, "optimized", s, o)
		// Re-adding everything must be a no-op, including on run
		// containers produced by Optimize.
		for _, k := range keys {
			s.Add(k)
		}
		checkEqual(t, "re-added", s, o)
		c := s.Clone()
		checkEqual(t, "clone", c, o)
		_ = pi
	}
}

// TestContainsSharedReadOnly runs lookups on one completed set from
// several goroutines, as evaluations do on a cached posting list; under
// -race it fails if a lookup writes the set.
func TestContainsSharedReadOnly(t *testing.T) {
	s := New()
	for k := uint64(0); k < 64; k++ {
		s.Add(k << chunkBits)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(0); k < 64; k++ {
				key := ((k + uint64(g)*16) % 64) << chunkBits
				if !s.Contains(key) || s.Contains(key+1) {
					t.Errorf("Contains wrong for chunk %d", key>>chunkBits)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSetOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pats := patterns(rng)
	for i, ka := range pats {
		for j, kb := range pats {
			sa, oa := buildPair(ka)
			sb, ob := buildPair(kb)
			// Exercise optimized (run/array/bitmap mixed) and raw forms.
			if (i+j)%2 == 0 {
				sa.Optimize()
			}
			if j%2 == 1 {
				sb.Optimize()
			}
			beforeA, beforeB := sa.Slice(), sb.Slice()

			checkEqual(t, "and", sa.And(sb), oa.and(ob))
			checkEqual(t, "or", sa.Or(sb), oa.or(ob))
			checkEqual(t, "andnot", sa.AndNot(sb), oa.andNot(ob))

			// Operands must come back untouched (read-only contract).
			if !slices.Equal(sa.Slice(), beforeA) {
				t.Fatalf("pattern %d/%d: And/Or/AndNot mutated left operand", i, j)
			}
			if !slices.Equal(sb.Slice(), beforeB) {
				t.Fatalf("pattern %d/%d: And/Or/AndNot mutated right operand", i, j)
			}
		}
	}
}

func TestAddRange(t *testing.T) {
	cases := []struct{ lo, hi uint64 }{
		{0, 0},
		{5, 5000},
		{0xFFF0, 0x1000F},        // crosses a chunk boundary
		{0x2FFFF, 0x30000},       // exactly two chunks
		{100, 99},                // empty (lo > hi)
		{1 << 20, 1<<20 + 70000}, // spans a full chunk plus spillover
	}
	for _, tc := range cases {
		s, o := New(), oracle{}
		s.AddRange(tc.lo, tc.hi)
		if tc.lo <= tc.hi {
			o.addRange(tc.lo, tc.hi)
		}
		checkEqual(t, "addrange", s, o)
		s.Optimize()
		checkEqual(t, "addrange-optimized", s, o)
	}
	// Overlapping ranges plus point adds.
	s, o := New(), oracle{}
	s.AddRange(10, 500)
	o.addRange(10, 500)
	s.AddRange(400, 900)
	o.addRange(400, 900)
	s.Add(5)
	o.add(5)
	checkEqual(t, "overlap", s, o)
}

func TestOptimizePicksExpectedKinds(t *testing.T) {
	// A long contiguous range compresses to a run container.
	s := New()
	s.AddRange(0, 9999)
	s.Optimize()
	if st := s.Stats(); st.Run != 1 || st.Array != 0 || st.Bitmap != 0 {
		t.Fatalf("contiguous range: stats = %+v, want 1 run container", st)
	}
	// Sparse values stay an array.
	s = New()
	for i := uint64(0); i < 100; i++ {
		s.Add(i * 131)
	}
	s.Optimize()
	if st := s.Stats(); st.Array != 1 {
		t.Fatalf("sparse: stats = %+v, want 1 array container", st)
	}
	// Dense random fill (no long runs) stays a bitmap.
	s = New()
	rng := rand.New(rand.NewSource(3))
	for s.Card() <= maxArrayCard*2 {
		s.Add(uint64(rng.Intn(1<<chunkBits) * 2)) // even values: no runs
	}
	s.Optimize()
	if st := s.Stats(); st.Bitmap != 1 {
		t.Fatalf("dense: stats = %+v, want 1 bitmap container", st)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	s := New()
	s.AddRange(0, 100)
	s.Add(1 << 30)
	n := 0
	s.Iterate(func(uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d keys, want 10", n)
	}
}

func TestNilAndEmptySets(t *testing.T) {
	var nilSet *Set
	if nilSet.Card() != 0 || !nilSet.IsEmpty() || nilSet.Contains(7) {
		t.Fatal("nil set should read as empty")
	}
	nilSet.Iterate(func(uint64) bool { t.Fatal("nil set iterated"); return false })
	nilSet.Optimize()
	empty := New()
	if got := nilSet.And(empty).Card(); got != 0 {
		t.Fatalf("nil.And(empty) card = %d", got)
	}
	if got := empty.Or(nilSet).Card(); got != 0 {
		t.Fatalf("empty.Or(nil) card = %d", got)
	}
	full := New()
	full.AddRange(0, 9)
	if got := full.Or(nilSet).Card(); got != 10 {
		t.Fatalf("full.Or(nil) card = %d, want 10", got)
	}
	if got := full.AndNot(nilSet).Card(); got != 10 {
		t.Fatalf("full.AndNot(nil) card = %d, want 10", got)
	}
	if got := nilSet.AndNot(full).Card(); got != 0 {
		t.Fatalf("nil.AndNot(full) card = %d", got)
	}
	if s := nilSet.Stats(); s.Containers() != 0 {
		t.Fatalf("nil set stats = %+v", s)
	}
}

func TestStatsString(t *testing.T) {
	s := New()
	s.AddRange(0, 9999) // one run container after optimize
	for i := uint64(0); i < 10; i++ {
		s.Add(1<<20 + i*999) // sparse array container in another chunk
	}
	s.Optimize()
	if got := s.Stats().String(); got != "card=10010 array=1 run=1" {
		t.Fatalf("Stats.String() = %q", got)
	}
	if got := New().Stats().String(); got != "card=0" {
		t.Fatalf("empty Stats.String() = %q", got)
	}
}

// FuzzSetOps replays an opcode tape against both the Set and the map
// oracle, then cross-checks every read surface and the three binary
// ops. Seeds cover container transitions (array→bitmap, run fallback)
// and chunk-boundary keys; `go test -run=FuzzSetOps` replays them as
// the make bitmap step, and -fuzz explores further.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, int64(1))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x80, 0x41, 0x07}, int64(2))
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, int64(3))
	f.Add([]byte{250, 251, 252, 253, 254, 255, 0, 10, 20}, int64(4))
	f.Fuzz(func(t *testing.T, tape []byte, seed int64) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		sets := [2]*Set{New(), New()}
		oracles := [2]oracle{{}, {}}
		for _, op := range tape {
			side := int(op) & 1
			s, o := sets[side], oracles[side]
			switch (op >> 1) % 5 {
			case 0: // clustered add (stays within a chunk region)
				k := uint64(rng.Intn(1 << 18))
				s.Add(k)
				o.add(k)
			case 1: // scattered add (arbitrary chunk)
				k := rng.Uint64() >> uint(rng.Intn(48))
				s.Add(k)
				o.add(k)
			case 2: // range add
				lo := uint64(rng.Intn(1 << 18))
				hi := lo + uint64(rng.Intn(1<<14))
				s.AddRange(lo, hi)
				o.addRange(lo, hi)
			case 3: // optimize mid-stream
				s.Optimize()
			case 4: // boundary keys
				for _, k := range []uint64{0, 0xFFFF, 0x10000, 1<<32 - 1} {
					s.Add(k + uint64(op))
					o.add(k + uint64(op))
				}
			}
		}
		checkEqual(t, "fuzz[0]", sets[0], oracles[0])
		checkEqual(t, "fuzz[1]", sets[1], oracles[1])
		checkEqual(t, "fuzz-and", sets[0].And(sets[1]), oracles[0].and(oracles[1]))
		checkEqual(t, "fuzz-or", sets[0].Or(sets[1]), oracles[0].or(oracles[1]))
		checkEqual(t, "fuzz-andnot", sets[0].AndNot(sets[1]), oracles[0].andNot(oracles[1]))
	})
}
