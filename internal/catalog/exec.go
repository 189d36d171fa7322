package catalog

import (
	"fmt"

	"github.com/gridmeta/hybridcat/internal/bitset"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Plan executor. execPlan walks a compiled plan (plan.go) through the
// Figure-4 stages — probe, containment rollup, cross-criteria intersect
// — with compressed bitmaps of packed instance keys flowing between
// them (bitmap.go holds the set algebra). Every stored instance fits
// the key packing: insertShred enforces the envelope at the write
// boundary and checkRowEnvelope on every load path, and instKey still
// fails closed with ErrInstanceLimit.

// execPlan compiles the query and executes the plan tree, annotating
// every plan node with its instance set and cache outcome as it goes.
// It returns the visible matching object IDs ascending together with
// the annotated plan for ExplainQuery.
func (v *view) execPlan(q *Query, key string, tr *obs.Trace) ([]int64, *queryPlan, error) {
	c := v.c
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 1+2: compile, then per criteria node the instances directly
	// satisfying its element predicates.
	endProbe := c.stageTimer(tr, "probe", c.obsv.stageProbe)
	p, err := v.compile(q, key)
	if err != nil {
		return nil, nil, err
	}
	sets, err := v.probeStage(p, tr)
	if err != nil {
		return nil, nil, err
	}
	endProbe(int64(len(p.all)))
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 3: containment rollup, children before parents (p.rollups is
	// in reverse-DFS order).
	endRollup := c.stageTimer(tr, "rollup", c.obsv.stageRollup)
	for _, rn := range p.rollups {
		rn.beforeCard = sets[rn.q.id].Card()
		narrowed, err := v.rollupSet(rn.q, sets)
		if err != nil {
			return nil, nil, err
		}
		sets[rn.q.id] = narrowed
		rn.set = narrowed
	}
	endRollup(int64(len(p.rollups)))
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 4: objects containing a satisfying instance of every
	// top-level criterion, restricted to what the owner may see.
	endIntersect := c.stageTimer(tr, "intersect", c.obsv.stageIntersect)
	visible := v.intersect(q, p, sets)
	endIntersect(int64(len(visible)))
	return visible, p, nil
}

// probeStage runs every scan node, fanning out across the worker pool
// when the criteria count and indexed-row volume warrant it. This is
// the one home of the fan-out decision and its instrumentation (path
// counters, per-criterion cardinality, bitmap container census).
func (v *view) probeStage(p *queryPlan, tr *obs.Trace) (map[int]*bitset.Set, error) {
	c := v.c
	workers := c.fanoutWorkers(len(p.all), v.tab(TElemData).Len())
	if workers > 1 {
		c.obsv.pathParallel.Inc()
		if tr != nil {
			tr.Annotate(fmt.Sprintf("path=parallel workers=%d", workers))
		}
	} else {
		c.obsv.pathSequential.Inc()
		tr.Annotate("path=sequential")
	}
	err := runParallel(workers, len(p.all), func(i int) error {
		sc := p.scans[i]
		s, hit, err := v.probe(sc)
		if err != nil {
			return err
		}
		sc.set, sc.cacheHit = s, hit
		cs := s.Stats()
		c.obsv.criterionRows.Observe(int64(cs.Card))
		c.obsv.bitmapContainersArray.Add(uint64(cs.Array))
		c.obsv.bitmapContainersBitmap.Add(uint64(cs.Bitmap))
		c.obsv.bitmapContainersRun.Add(uint64(cs.Run))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sets := make(map[int]*bitset.Set, len(p.all))
	for _, sc := range p.scans {
		sets[sc.q.id] = sc.set
	}
	return sets, nil
}

// probe answers one scan node from the postings cache layer when
// enabled (keyed by the criterion's probeKey, stamped with the pinned
// epoch; cached sets are shared read-only), computing via scanSet on a
// miss. It reports whether the cache answered.
func (v *view) probe(sc *planNode) (*bitset.Set, bool, error) {
	if v.c.caches.postings == nil {
		s, err := v.scanSet(sc)
		return s, false, err
	}
	hit := true
	s, err := v.c.caches.postings.GetOrCompute(v.snap.Epoch(), sc.q.probeKey, func() (*bitset.Set, error) {
		hit = false
		return v.scanSet(sc)
	})
	return s, hit, err
}

// intersect projects each top-level criterion's instance set onto
// objects, then chains bitmap ANDs from the smallest set up, recording
// each candidate object set on the plan. It returns the visible object
// IDs ascending.
func (v *view) intersect(q *Query, p *queryPlan, sets map[int]*bitset.Set) []int64 {
	objSets := make([]*bitset.Set, len(p.tops))
	for i, top := range p.tops {
		os := objectSet(sets[top.id])
		v.c.obsv.intersectCardinality.Observe(int64(os.Card()))
		p.topObjs = append(p.topObjs, topObjects{id: top.id, set: os})
		objSets[i] = os
	}
	result := andAscending(objSets)
	ids := make([]int64, 0, result.Card())
	result.Iterate(func(k uint64) bool {
		ids = append(ids, int64(k))
		return true
	})
	return v.filterVisible(q.Owner, ids)
}

// scanSet executes one scan node as a posting list: each child probe's
// specs stream row IDs off the B-tree into a bitset, convert to packed
// instance keys, and the per-predicate sets AND smallest-first: an
// instance directly satisfies the criterion only if every predicate
// matched it.
func (v *view) scanSet(sc *planNode) (*bitset.Set, error) {
	n := sc.q
	if len(n.elems) == 0 {
		// scan-all: every instance of the definition.
		attrT := v.tab(TAttrData)
		rowSet := bitset.New()
		if err := attrT.LookupEqualPostings("attr_data_by_attr", rowSet, relstore.Int(n.def.ID)); err != nil {
			return nil, err
		}
		return v.instanceSet(attrT, rowSet, nil)
	}
	sets := make([]*bitset.Set, len(sc.children))
	for k, pc := range sc.children {
		s, err := v.probeSet(pc.probe)
		if err != nil {
			return nil, err
		}
		sets[k] = s
	}
	return andAscending(sets), nil
}

// probeSet executes one compiled probe as an instance-key set. An
// or-union streams every member spec into one row-ID set before a
// single row→instance conversion (members are equality probes, so
// there is never a post-filter to thread through the union).
func (v *view) probeSet(pp *probePlan) (*bitset.Set, error) {
	elemT := v.tab(TElemData)
	rowSet := bitset.New()
	if pp.op == opOrUnion {
		for _, spec := range pp.specs {
			if err := emitSpec(elemT, spec, rowSet); err != nil {
				return nil, err
			}
		}
		return v.instanceSet(elemT, rowSet, nil)
	}
	if len(pp.specs) == 0 {
		return bitset.New(), nil
	}
	spec := pp.specs[0]
	if err := emitSpec(elemT, spec, rowSet); err != nil {
		return nil, err
	}
	return v.instanceSet(elemT, rowSet, spec.post)
}

// emitSpec streams one spec's matching row IDs into dst.
func emitSpec(t *relstore.Table, spec probeSpec, dst *bitset.Set) error {
	if spec.ranged {
		return t.LookupRangePostings(spec.index, dst, spec.lo, spec.hi)
	}
	return t.LookupEqualPostings(spec.index, dst, spec.eq...)
}
