package bench

import (
	"fmt"
	"sort"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// B1BitmapSetOps measures the compressed-bitmap Figure-4 pipeline on
// multi-criterion queries whose individual criteria are wide (each
// matches a large slice of the corpus), so the per-query cost is
// dominated by combining big instance sets, not by finding them.
// Criterion probes emit compressed posting lists straight off the
// B-tree; predicates and the cross-criteria stage combine them with
// word-at-a-time ANDs ordered by ascending cardinality.
//
// Two cells answer the same pooled-criteria query stream: cold (caches
// off: every query pays probe + set ops) and warm (criterion probes
// memoized in the postings layer; each measured query is a fresh
// combination, so the evaluate layer misses and the set operations
// themselves are what's timed — the probe-cache-hit steady state of a
// busy catalog). Every measured query is a distinct 3-criterion
// combination drawn from one shared criterion pool.
//
// The warm catalog carries a private metrics registry; its per-query
// query_stage_nanos{stage=intersect} mean lands in the notes — the
// same per-stage numbers /debug/tracez shows per query.
func B1BitmapSetOps(o Options) (*Table, error) {
	t := &Table{
		ID:      "B1",
		Title:   "bitmap posting lists: multi-criterion set ops, cold vs warm",
		Claim:   "with criterion probes cache-warm, wide multi-criterion queries cost only their compressed-bitmap ANDs, several times less than a cold evaluation that also pays the B-tree probes",
		Columns: []string{"cache", "queries", "p50", "p95", "qps"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(1000)
	g := workload.New(cfg)
	docs := g.Corpus()

	// The criterion pool — every entry deliberately wide (matches a
	// large fraction of the corpus) so the cross-criteria combination,
	// not the probe, dominates: range predicates at distinct thresholds
	// over every dynamic (group, param) pair, structural keyword
	// criteria, and the themekt/OpGe pair of the standard multi-criteria
	// mix. Reusing the workload builders keeps the criteria identical to
	// the other experiments' query shapes.
	var pool []*catalog.AttrCriteria
	for gi := 0; gi < cfg.DynamicAttrsPerDoc; gi++ {
		for pi := 0; pi < cfg.ParamsPerAttr; pi++ {
			// pi wraps at paramsPerLevel inside RangeQuery; the per-pi
			// threshold keeps the wrapped entries distinct criteria.
			frac := 0.4 + 0.1*float64(pi)
			pool = append(pool, g.RangeQuery(gi, pi, frac).Attrs[0])
		}
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, g.ThemeQuery(i).Attrs[0])
	}
	pool = append(pool, g.MultiQuery(0, 2).Attrs...)
	pool = append(pool, g.MultiQuery(1, 2).Attrs[1:]...)

	// All distinct 3-criterion combinations, then a fixed-stride walk so
	// consecutive measured queries mix range, keyword, and OpGe criteria
	// instead of exhausting one region of the lexicographic order. Warm
	// cells consume fresh combinations per repetition so the whole-query
	// evaluate cache never answers; only the criterion probes are shared
	// with earlier queries.
	var allCombos []*catalog.Query
	for a := 0; a < len(pool); a++ {
		for b := a + 1; b < len(pool); b++ {
			for c := b + 1; c < len(pool); c++ {
				q := &catalog.Query{}
				q.Attrs = []*catalog.AttrCriteria{pool[a], pool[b], pool[c]}
				allCombos = append(allCombos, q)
			}
		}
	}
	const stride = 997 // prime, coprime with C(25,3); visits each combo once
	combos := make([]*catalog.Query, len(allCombos))
	for j := range allCombos {
		combos[j] = allCombos[(j*stride)%len(allCombos)]
	}

	reps, perRep := o.runs(), 12
	need := perRep + reps*perRep // cold reuses one block; warm burns a fresh block per rep

	load := func(opts catalog.Options, reg *obs.Registry) (*catalog.Catalog, error) {
		opts.Metrics = reg
		c, err := catalog.Open(g.Schema, opts)
		if err != nil {
			return nil, err
		}
		if err := g.RegisterDefinitions(c); err != nil {
			return nil, err
		}
		for _, d := range docs {
			if _, err := c.Ingest("bench", d); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	// The workload's parameter values are linear in the document index
	// modulo ValueCardinality, so values across groups are perfectly
	// correlated and a handful of window intersections are genuinely
	// empty. Screen the combination stream down to non-empty queries on
	// the cache-disabled catalog (nothing is retained, so the cold cell
	// it is reused for stays cold).
	cold, err := load(catalog.Options{DisableCache: true}, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	picked := make([]*catalog.Query, 0, need)
	for _, q := range combos {
		if len(picked) == need {
			break
		}
		ids, err := cold.Evaluate(q)
		if err != nil {
			return nil, err
		}
		if len(ids) > 0 {
			picked = append(picked, q)
		}
	}
	if len(picked) < need {
		return nil, fmt.Errorf("bench B1: only %d/%d combinations matched anything", len(picked), need)
	}
	combos = picked

	timeQueries := func(c *catalog.Catalog, qs []*catalog.Query) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, len(qs))
		for _, q := range qs {
			start := time.Now()
			ids, err := c.Evaluate(q)
			if err != nil {
				return nil, err
			}
			lats = append(lats, time.Since(start))
			if len(ids) == 0 {
				return nil, fmt.Errorf("bench B1: wide query matched nothing — workload drifted")
			}
		}
		return lats, nil
	}

	stats := func(lats []time.Duration, wall time.Duration) (p50, p95 time.Duration, qps float64) {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		at := func(p float64) time.Duration {
			i := int(p * float64(len(lats)))
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return lats[i]
		}
		return at(0.50), at(0.95), float64(len(lats)) / wall.Seconds()
	}

	// Cold: caches off, so every evaluation pays resolve, probe, and set
	// combination against the base tables.
	var lats []time.Duration
	var wall time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		l, err := timeQueries(cold, combos[:perRep])
		if err != nil {
			return nil, err
		}
		wall += time.Since(start)
		lats = append(lats, l...)
	}
	coldP50, p95, qps := stats(lats, wall)
	t.AddRow("cold", len(lats), coldP50, p95, fmt.Sprintf("%.0f", qps))

	// Warm: pre-touch every pooled criterion once so the postings layer
	// is hot, then time never-before-seen combinations.
	regW := obs.NewRegistry()
	cw, err := load(catalog.Options{}, regW)
	if err != nil {
		return nil, err
	}
	for _, crit := range pool {
		wq := &catalog.Query{Attrs: []*catalog.AttrCriteria{crit}}
		if _, err := cw.Evaluate(wq); err != nil {
			return nil, err
		}
	}
	intersect := regW.Histogram("query_stage_nanos", obs.L("stage", "intersect"))
	intersectBefore := intersect.Sum()
	lats = lats[:0]
	wall = 0
	for rep := 0; rep < reps; rep++ {
		qs := combos[perRep+rep*perRep : perRep+(rep+1)*perRep]
		start := time.Now()
		l, err := timeQueries(cw, qs)
		if err != nil {
			return nil, err
		}
		wall += time.Since(start)
		lats = append(lats, l...)
	}
	warmP50, p95, qps := stats(lats, wall)
	t.AddRow("warm", len(lats), warmP50, p95, fmt.Sprintf("%.0f", qps))

	if warmP50 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"p50: cold %s vs warm %s = %.1fx: memoized probes leave set combination as the measured cost",
			fmtDuration(coldP50), fmtDuration(warmP50), float64(coldP50)/float64(warmP50)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"intersect stage (query_stage_nanos{stage=intersect}, warm, per query): %s — the same per-stage spans /debug/tracez reports",
		fmtDuration(time.Duration(float64(intersect.Sum()-intersectBefore)/float64(len(lats))))))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d docs, %d pooled criteria, %d screened non-empty 3-criterion combinations; every criterion is wide (range fracs 0.4-0.9, OpGe 0, keyword equality), so per-criterion posting lists hold hundreds-to-thousands of instances",
		len(docs), len(pool), len(combos)))
	return t, nil
}
