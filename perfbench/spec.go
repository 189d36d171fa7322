package main

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

type opKind int

const (
	opQuery opKind = iota
	opSearch
	opRanked
	opFetch
	opIngest
	opPublish
	numKinds
)

var kindNames = [numKinds]string{"query", "search", "ranked", "fetch", "ingest", "publish"}

func (k opKind) String() string { return kindNames[k] }

// searchLimit is the page size of every structural POST /search.
const searchLimit = 20

// workloadSpec describes one traffic mix and the deployment it runs on.
type workloadSpec struct {
	name    string
	docs    int  // documents loaded at setup
	shards  int  // 0: single node; N: mdserver -shards N
	durable bool // -wal (single node) or the shard WALs
	fresh   bool // every structural query is new (no query pool)
	// hot draws pooled queries and fetched documents Zipf-skewed, so the
	// same few repeat; otherwise they are drawn uniformly, so a read
	// rarely repeats between two writes and runs cold.
	hot bool
	// mix is the op count of each kind in every block of consecutive ops
	// (as many as the counts add up to), so any prefix of the stream has
	// the mix to within one block.
	mix [numKinds]int
	// setups is how many times a --trace 0 run sets the deployment up;
	// setup_s is their median and the last one is measured.
	setups int
	// tracedOps is the length of the op stream prefix each traced pass
	// replays.
	tracedOps int
}

var workloads = []workloadSpec{
	{
		name:      "browse",
		docs:      4000,
		hot:       true,
		mix:       [numKinds]int{opQuery: 7, opSearch: 5, opRanked: 3, opFetch: 5},
		setups:    2,
		tracedOps: 1500,
	},
	{
		name:      "survey",
		docs:      4000,
		shards:    4,
		durable:   true,
		fresh:     true,
		mix:       [numKinds]int{opQuery: 8, opSearch: 5, opRanked: 2, opFetch: 5},
		setups:    1,
		tracedOps: 300,
	},
	{
		name:      "curate",
		docs:      4000,
		durable:   true,
		mix:       [numKinds]int{opIngest: 6, opPublish: 2, opQuery: 14, opSearch: 8, opFetch: 9, opRanked: 1},
		setups:    1,
		tracedOps: 400,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadSpec) readOnly() bool { return w.mix[opIngest] == 0 && w.mix[opPublish] == 0 }

// extraDocs is how many new documents a run may ingest after setup: the
// window's ingests, or the traced passes' ingest tail on a read-only
// workload.
func (w workloadSpec) extraDocs() int {
	if w.mix[opIngest] == 0 {
		return traceTail
	}
	return 5000
}

// op is one generated request. Documents are named by corpus index; the
// client maps them to the IDs the server returned.
type op struct {
	kind    opKind
	q       *catalog.Query
	body    []byte // query JSON for query/search/ranked
	fanout  bool   // ?fanout=1 on an owner-scoped sharded read
	offset  int    // search page offset
	doc     int    // fetch/publish target, or the document to ingest
	publish bool   // publish (true) or unpublish (false)
}

// describe renders the op as the request it becomes, with documents by
// corpus index: the byte-level identity of the op stream.
func (o *op) describe() string {
	switch o.kind {
	case opQuery:
		return fmt.Sprintf("POST /query fanout=%t %s", o.fanout, o.body)
	case opSearch:
		return fmt.Sprintf("POST /search?offset=%d&limit=%d fanout=%t %s", o.offset, searchLimit, o.fanout, o.body)
	case opRanked:
		return fmt.Sprintf("POST /search fanout=%t %s", o.fanout, o.body)
	case opFetch:
		return fmt.Sprintf("GET /fetch doc=%d", o.doc)
	case opIngest:
		return fmt.Sprintf("POST /ingest doc=%d", o.doc)
	default:
		return fmt.Sprintf("POST /objects/doc=%d/publish=%t", o.doc, o.publish)
	}
}

// opStream is the deterministic, lazily extended op sequence of one
// (workload, seed): op i is the same on every run and every commit.
type opStream struct {
	spec workloadSpec
	c    *corpus
	rng  *rand.Rand

	mu  sync.Mutex
	ops []*op

	pool       []*catalog.Query // structural query pool (browse, curate)
	poolBodies [][]byte
	ranked     []*catalog.Query
	rankBodies [][]byte
	poolZipf   *rand.Zipf
	docZipf    *rand.Zipf
	docPerm    []int
	block      []opKind // kinds left in the current block

	nextIngest int
	pubState   []bool // publish state the stream has set so far
}

const (
	poolSize       = 500
	rankedPoolSize = 100
)

func newOpStream(spec workloadSpec, c *corpus, seed int64) *opStream {
	s := &opStream{spec: spec, c: c, rng: rand.New(rand.NewSource(seed*104729 + 3))}
	if !spec.fresh {
		seen := map[string]bool{}
		for tries := 0; len(s.pool) < poolSize; tries++ {
			q := s.structural(len(s.pool))
			body := mustQueryJSON(q)
			// A shape with few distinct instances may repeat after a
			// while rather than stall the pool.
			if seen[string(body)] && tries < 50 {
				continue
			}
			tries = 0
			seen[string(body)] = true
			s.pool = append(s.pool, q)
			s.poolBodies = append(s.poolBodies, body)
		}
		s.ranked = c.gen.RankedQueries(rankedPoolSize)
		for _, q := range s.ranked {
			s.rankBodies = append(s.rankBodies, mustQueryJSON(q))
		}
		s.poolZipf = rand.NewZipf(s.rng, 1.1, 1, uint64(poolSize-1))
		s.docZipf = rand.NewZipf(s.rng, 1.1, 1, uint64(c.preload-1))
		s.docPerm = s.rng.Perm(c.preload)
	}
	s.pubState = append([]bool(nil), c.published...)
	return s
}

func mustQueryJSON(q *catalog.Query) []byte {
	b, err := catalog.MarshalQueryJSON(q)
	if err != nil {
		panic(err) // generated queries always marshal
	}
	return b
}

// at returns op i, generating the stream up to it.
func (s *opStream) at(i int) *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.next())
	}
	return s.ops[i]
}

func (s *opStream) next() *op {
	if len(s.block) == 0 {
		for k := opKind(0); k < numKinds; k++ {
			for n := 0; n < s.spec.mix[k]; n++ {
				s.block = append(s.block, k)
			}
		}
		s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	o := &op{kind: kind}
	switch kind {
	case opQuery, opSearch:
		if s.spec.fresh {
			s.freshStructural(o)
		} else {
			i := s.rng.Intn(poolSize)
			if s.spec.hot {
				i = int(s.poolZipf.Uint64())
			}
			o.q, o.body = s.pool[i], s.poolBodies[i]
		}
	case opRanked:
		if s.spec.fresh {
			i := s.rng.Intn(1 << 20)
			if i%3 == 2 {
				o.q = s.c.gen.RankedStructuralQuery(i)
			} else {
				o.q = s.c.gen.RankedQuery(i)
			}
			o.body = mustQueryJSON(o.q)
		} else {
			i := s.rng.Intn(rankedPoolSize)
			o.q, o.body = s.ranked[i], s.rankBodies[i]
		}
	case opFetch:
		if s.spec.fresh {
			o.doc = s.rng.Intn(s.c.preload)
		} else {
			o.doc = s.docPerm[s.rng.Intn(s.c.preload)]
			if s.spec.hot {
				o.doc = s.docPerm[s.docZipf.Uint64()]
			}
		}
	case opIngest:
		o.doc = s.c.preload + s.nextIngest%s.spec.extraDocs()
		s.nextIngest++
	case opPublish:
		o.doc = s.rng.Intn(s.c.preload)
		s.pubState[o.doc] = !s.pubState[o.doc]
		o.publish = s.pubState[o.doc]
	}
	return o
}

// structural draws pool entry i: a point, range, nested, theme or
// multi-criterion query, owner-scoped half of the time. The shape, range
// width, criteria count and scoping follow from the Zipf rank i, so the
// hot head of the pool costs alike under every seed; the groups,
// parameters, values and owners are drawn.
func (s *opStream) structural(i int) *catalog.Query {
	g, rng := s.c.gen, s.rng
	var q *catalog.Query
	switch i % 5 {
	case 0:
		q = g.PointQuery(rng.Intn(3), rng.Intn(3), rng.Intn(20))
	case 1:
		q = g.RangeQuery(rng.Intn(3), rng.Intn(3), float64(1+i/10%9)/10)
	case 2:
		q = g.NestedQuery(rng.Intn(3), rng.Intn(20), 1)
	case 3:
		q = g.ThemeQuery(rng.Intn(12))
	default:
		q = g.MultiQuery(rng.Intn(4), 2+i/10%3)
	}
	if i/5%2 == 0 {
		q.Owner = ownerName(rng.Intn(numOwners))
	}
	return q
}

// freshStructural fills a query or search op with a never-repeated
// query: continuous range bounds, or a random multi-criterion
// combination. Searches page uniformly through the estimated result.
func (s *opStream) freshStructural(o *op) {
	g, rng := s.c.gen, s.rng
	// Criteria stay selective (a range spans at most a quarter of the
	// values; a place matches a sixth of the corpus): every fresh probe
	// lands in the postings cache, whose entries grow with the matches.
	frac := 0.25 * rng.Float64()
	if o.kind == opSearch {
		frac = 0.1 + 0.3*rng.Float64()
		o.q = g.RangeQuery(rng.Intn(3), rng.Intn(3), frac)
	} else if rng.Intn(2) == 0 {
		o.q = g.RangeQuery(rng.Intn(3), rng.Intn(3), frac)
	} else {
		o.q = &catalog.Query{}
		for n := 2 + rng.Intn(2); n > 0; n-- {
			var part *catalog.Query
			switch rng.Intn(4) {
			case 0:
				part = g.PointQuery(rng.Intn(3), rng.Intn(3), rng.Intn(20))
			case 1:
				part = g.RangeQuery(rng.Intn(3), rng.Intn(3), 0.25*rng.Float64())
			case 2:
				// The place criterion of a ranked-structural query.
				part = &catalog.Query{Attrs: g.RankedStructuralQuery(rng.Intn(6)).Attrs}
			default:
				part = g.NestedQuery(rng.Intn(3), rng.Intn(20), 1)
			}
			o.q.Attrs = append(o.q.Attrs, part.Attrs...)
		}
	}
	// Visible share of the corpus in scope: everything for a superuser,
	// the owner's documents plus the published ones (on the owner's
	// shard only, when routed) for an owner.
	scope := 1.0
	if rng.Intn(2) == 0 {
		o.q.Owner = ownerName(rng.Intn(numOwners))
		o.fanout = s.spec.shards > 0 && rng.Intn(4) == 0
		scope = 1.0/numOwners + 0.25
		if s.spec.shards > 0 && !o.fanout {
			scope = 1.0/numOwners + 0.25/float64(s.spec.shards)
		}
	}
	if o.kind == opSearch {
		est := int(float64(s.c.preload) * scope * frac)
		o.offset = rng.Intn(est + 1)
	}
	o.body = mustQueryJSON(o.q)
}
