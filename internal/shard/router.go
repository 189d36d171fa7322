package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Router semantics. Writes are single-shard: a document belongs to its
// owner's shard, so ingest, delete, and publish go through exactly one
// catalog's group-commit path and the acknowledged-write guarantees are
// the single-node ones. Reads split by query owner:
//
//   - Owner != "": routed to the owner's shard. This is exact for the
//     owner's own objects (all on that shard, §1 privacy default:
//     ingest is unpublished) and for published objects co-located
//     there. Published objects of owners hashed elsewhere require the
//     fan-out read (fanout=true), which unions per-shard results under
//     each shard's own visibility filter and therefore reproduces
//     single-catalog semantics exactly.
//   - Owner == "" (superuser): fan out to every shard, merge.
//
// Merged result sets are in ascending global-ID order: per-shard
// Evaluate returns ascending local IDs, the gid encoding preserves that
// order within a shard, and a k-way merge interleaves the shards. The
// order is deterministic for a given cluster, so offset/limit paging
// composes exactly (see SearchPageContext).
//
// A read whose shard set is one shard — every read of a one-shard
// cluster — calls that shard's single-catalog method on the calling
// goroutine and returns its result as is (global IDs equal local IDs
// at N=1), so a single node pays nothing for the router.
//
// Collections are owner-scoped like objects: a collection lives on its
// owner's shard and carries a global ID, and a parent link or
// membership that would join two shards is refused with ErrCrossShard.

// ErrCrossShard is wrapped by collection writes that would link a
// collection to a parent collection or member object on another shard.
// The service answers it with 422.
var ErrCrossShard = errors.New("shard: collection link crosses shards")

// Ingest routes a parsed document to its owner's shard and returns the
// global object ID.
func (cl *Cluster) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	idx := cl.ShardFor(owner)
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	local, err := h.cat.Ingest(owner, doc)
	if err != nil {
		return 0, err
	}
	cl.countRoute(idx)
	return cl.GlobalID(idx, local), nil
}

// IngestXML parses and routes an XML document to its owner's shard.
func (cl *Cluster) IngestXML(owner, xml string) (int64, error) {
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		return 0, err
	}
	return cl.Ingest(owner, doc)
}

// Delete removes the object with the given global ID, reporting whether
// it existed.
func (cl *Cluster) Delete(gid int64) (bool, error) {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return false, err
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.Delete(local)
}

// SetPublished publishes or unpublishes the object with the given
// global ID.
func (cl *Cluster) SetPublished(gid int64, published bool) error {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return err
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.SetPublished(local, published)
}

// RegisterAttr registers a dynamic attribute definition on every shard
// (definitions are global: a fan-out query must resolve the same names
// on each instance). Shards assign identical definition IDs because
// they see registrations in the same order; the first shard's
// definition is returned. A mid-broadcast failure leaves earlier shards
// registered — re-issuing the registration is the recovery (it is
// idempotent per shard).
func (cl *Cluster) RegisterAttr(name, source string, parentID int64, owner string) (*core.AttrDef, error) {
	var first *core.AttrDef
	for i := 0; i < cl.n; i++ {
		h := cl.writeHandle(i)
		def, err := h.cat.RegisterAttr(name, source, parentID, owner)
		h.gate.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if first == nil {
			first = def
		}
	}
	return first, nil
}

// RegisterElem registers a dynamic element definition on every shard;
// see RegisterAttr for the broadcast semantics.
func (cl *Cluster) RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error) {
	var first *core.ElemDef
	for i := 0; i < cl.n; i++ {
		h := cl.writeHandle(i)
		def, err := h.cat.RegisterElem(name, source, attrID, dt, owner)
		h.gate.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if first == nil {
			first = def
		}
	}
	return first, nil
}

// readSet returns the shards a read touches and counts the read: the
// owner's shard for an owner-scoped query (a routed read), every shard
// for a superuser query or when fanout forces it (a fan-out read). On a
// one-shard cluster every read is routed.
func (cl *Cluster) readSet(owner string, fanout bool) []*shardHandle {
	shards := cl.table.Load().shards
	if len(shards) > 1 && (owner == "" || fanout) {
		cl.fanout.Inc()
		return shards
	}
	idx := cl.ShardFor(owner)
	cl.countRoute(idx)
	return shards[idx : idx+1]
}

// scatter runs fn against every shard in hs and returns the results in
// hs order. The last shard runs on the calling goroutine, so a one-shard
// read spawns nothing and returns fn's result and error untouched. Over
// several shards a definition unknown on some of them yields a zero
// contribution; the read fails only if every shard refuses it (the
// definition exists nowhere) or a shard fails for any other reason.
func scatter[T any](hs []*shardHandle, fn func(*catalog.Catalog) (T, error)) ([]T, error) {
	if len(hs) == 1 {
		v, err := fn(hs[0].cat)
		return []T{v}, err
	}
	out := make([]T, len(hs))
	errs := make([]error, len(hs))
	last := len(hs) - 1
	var wg sync.WaitGroup
	for i, h := range hs[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = fn(h.cat)
		}()
	}
	out[last], errs[last] = fn(hs[last].cat)
	wg.Wait()
	unknown := 0
	var lastUnknown error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, catalog.ErrUnknownDefinition) {
			unknown++
			lastUnknown = err
			var zero T
			out[i] = zero
			continue
		}
		return nil, fmt.Errorf("shard %d: %w", hs[i].idx, err)
	}
	if unknown == len(errs) {
		return nil, lastUnknown
	}
	return out, nil
}

// EvaluateContext runs the Figure-4 set pipeline on the shards the
// query reads (routed by owner; fanout forces every shard) and returns
// ascending global IDs. ctx reaches every shard's pipeline, which
// aborts at its next stage boundary once ctx is done.
func (cl *Cluster) EvaluateContext(ctx context.Context, q *catalog.Query, fanout bool) ([]int64, error) {
	hs := cl.readSet(q.Owner, fanout)
	per, err := scatter(hs, func(c *catalog.Catalog) ([]int64, error) { return c.EvaluateContext(ctx, q) })
	if err != nil {
		return nil, err
	}
	return cl.mergeIDs(hs, per), nil
}

// Evaluate is the routed EvaluateContext without a cancellation
// context, kept with EvaluateAll, SearchPage, SearchAll and SearchRanked
// for callers outside a request (the perfbench harness and the
// experiments drive the router directly).
func (cl *Cluster) Evaluate(q *catalog.Query) ([]int64, error) {
	return cl.EvaluateContext(context.Background(), q, false)
}

// EvaluateAll is Evaluate with unconditional fan-out. For an
// owner-scoped query this reproduces single-catalog visibility exactly
// — the owner's objects plus ALL published objects, wherever their
// owners hash — at the cost of touching every shard.
func (cl *Cluster) EvaluateAll(q *catalog.Query) ([]int64, error) {
	return cl.EvaluateContext(context.Background(), q, true)
}

// globalize maps one shard's ascending local IDs to global IDs
// (ascending, by construction of the encoding). At N=1 the encoding is
// the identity and the slice is returned as is.
func (cl *Cluster) globalize(idx int, locals []int64) []int64 {
	if cl.n == 1 {
		return locals
	}
	out := make([]int64, len(locals))
	for i, id := range locals {
		out[i] = cl.GlobalID(idx, id)
	}
	return out
}

// mergeIDs k-way merges per-shard ascending local ID lists (aligned
// with hs) into one ascending global ID list.
func (cl *Cluster) mergeIDs(hs []*shardHandle, perShard [][]int64) []int64 {
	if len(hs) == 1 {
		return cl.globalize(hs[0].idx, perShard[0])
	}
	total := 0
	for _, ids := range perShard {
		total += len(ids)
	}
	out := make([]int64, 0, total)
	heads := make([]int, len(perShard))
	for len(out) < total {
		best, bestGid := -1, int64(0)
		for i, ids := range perShard {
			if heads[i] >= len(ids) {
				continue
			}
			gid := cl.GlobalID(hs[i].idx, ids[heads[i]])
			if best < 0 || gid < bestGid {
				best, bestGid = i, gid
			}
		}
		out = append(out, bestGid)
		heads[best]++
	}
	return out
}

// SearchPageContext evaluates the query (see EvaluateContext) and
// builds responses for one page of the merged result set: entries
// [offset, offset+limit) of the ascending global-ID order, with the
// full match count. limit <= 0 means no limit. Responses are built only
// for the page, on the owning shards — so a deep page over a fan-out
// query still touches each shard for evaluation but builds at most
// `limit` documents.
func (cl *Cluster) SearchPageContext(ctx context.Context, q *catalog.Query, fanout bool, offset, limit int) ([]catalog.Response, int, error) {
	ids, err := cl.EvaluateContext(ctx, q, fanout)
	if err != nil {
		return nil, 0, err
	}
	resp, err := cl.BuildResponse(catalog.Page(ids, offset, limit))
	if err != nil {
		return nil, 0, err
	}
	return resp, len(ids), nil
}

// SearchPage is the routed SearchPageContext without a cancellation
// context (see Evaluate).
func (cl *Cluster) SearchPage(q *catalog.Query, offset, limit int) ([]catalog.Response, int, error) {
	return cl.SearchPageContext(context.Background(), q, false, offset, limit)
}

// SearchAll builds every fan-out match's response (see EvaluateAll).
func (cl *Cluster) SearchAll(q *catalog.Query) ([]catalog.Response, error) {
	resp, _, err := cl.SearchPageContext(context.Background(), q, true, 0, 0)
	return resp, err
}

// BuildResponse reconstructs the response documents for the given
// global IDs, preserving their order. Unknown IDs are skipped, matching
// the single-catalog contract.
func (cl *Cluster) BuildResponse(gids []int64) ([]catalog.Response, error) {
	if cl.n == 1 {
		return cl.handle(0).cat.BuildResponse(gids)
	}
	// Group the page by shard, keeping each shard's locals in request
	// order, then reassemble in the caller's order.
	byShard := make(map[int][]int64)
	for _, gid := range gids {
		idx, local, err := cl.SplitID(gid)
		if err != nil {
			return nil, err
		}
		byShard[idx] = append(byShard[idx], local)
	}
	built := make(map[int64]catalog.Response, len(gids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, cl.n)
	for idx, locals := range byShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.handle(idx).cat.BuildResponse(locals)
			if err != nil {
				errs[idx] = fmt.Errorf("shard %d: %w", idx, err)
				return
			}
			mu.Lock()
			for _, r := range resp {
				gid := cl.GlobalID(idx, r.ObjectID)
				built[gid] = catalog.Response{ObjectID: gid, XML: r.XML}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]catalog.Response, 0, len(built))
	for _, gid := range gids {
		if r, ok := built[gid]; ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// FetchDocument reconstructs one object's full document by global ID.
func (cl *Cluster) FetchDocument(gid int64) (*xmldoc.Node, error) {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return nil, err
	}
	cl.countRoute(idx)
	return cl.handle(idx).cat.FetchDocument(local)
}

// Objects lists every shard's objects merged in ascending global-ID
// order, with IDs rewritten to global.
func (cl *Cluster) Objects() []catalog.ObjectInfo {
	t := cl.table.Load()
	if cl.n == 1 {
		return t.shards[0].cat.Objects()
	}
	var out []catalog.ObjectInfo
	for i, h := range t.shards {
		for _, o := range h.cat.Objects() {
			o.ID = cl.GlobalID(i, o.ID)
			out = append(out, o)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ObjectCount returns the total object count across shards.
func (cl *Cluster) ObjectCount() int {
	n := 0
	for _, h := range cl.table.Load().shards {
		n += h.cat.ObjectCount()
	}
	return n
}

// CreateCollection creates a collection on its owner's shard and
// returns its global ID. parentID 0 makes a root collection; a parent
// on another shard is refused with ErrCrossShard.
func (cl *Cluster) CreateCollection(name, owner string, parentID int64) (int64, error) {
	idx := cl.ShardFor(owner)
	var parent int64
	if parentID != 0 {
		pidx, local, err := cl.SplitID(parentID)
		if err != nil {
			return 0, err
		}
		if pidx != idx {
			return 0, fmt.Errorf("%w: owner %q is on shard %d, parent collection %d on shard %d",
				ErrCrossShard, owner, idx, parentID, pidx)
		}
		parent = local
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	local, err := h.cat.CreateCollection(name, owner, parent)
	if err != nil {
		return 0, err
	}
	cl.countRoute(idx)
	return cl.GlobalID(idx, local), nil
}

// colocate splits a collection and an object global ID, refusing a pair
// on different shards with ErrCrossShard.
func (cl *Cluster) colocate(collID, objectID int64) (idx int, coll, obj int64, err error) {
	idx, coll, err = cl.SplitID(collID)
	if err != nil {
		return 0, 0, 0, err
	}
	oidx, obj, err := cl.SplitID(objectID)
	if err != nil {
		return 0, 0, 0, err
	}
	if oidx != idx {
		return 0, 0, 0, fmt.Errorf("%w: collection %d is on shard %d, object %d on shard %d",
			ErrCrossShard, collID, idx, objectID, oidx)
	}
	return idx, coll, obj, nil
}

// AddToCollection places an object into a collection on the same shard.
func (cl *Cluster) AddToCollection(collID, objectID int64) error {
	idx, coll, obj, err := cl.colocate(collID, objectID)
	if err != nil {
		return err
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.AddToCollection(coll, obj)
}

// RemoveFromCollection removes a membership, reporting whether it
// existed. IDs that name no object or collection remove nothing; a pair
// on different shards is refused with ErrCrossShard.
func (cl *Cluster) RemoveFromCollection(collID, objectID int64) (bool, error) {
	idx, coll, obj, err := cl.colocate(collID, objectID)
	if errors.Is(err, ErrCrossShard) {
		return false, err
	}
	if err != nil {
		return false, nil
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.RemoveFromCollection(coll, obj)
}

// Collections lists every shard's collections in ascending global-ID
// order, with IDs and parent IDs rewritten to global.
func (cl *Cluster) Collections() []catalog.CollectionInfo {
	t := cl.table.Load()
	if cl.n == 1 {
		return t.shards[0].cat.Collections()
	}
	var out []catalog.CollectionInfo
	for i, h := range t.shards {
		for _, c := range h.cat.Collections() {
			c.ID = cl.GlobalID(i, c.ID)
			if c.ParentID != 0 {
				c.ParentID = cl.GlobalID(i, c.ParentID)
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// CollectionObjects returns the global IDs of the objects in a
// collection subtree, ascending; the read routes to the collection's
// shard, which holds every member.
func (cl *Cluster) CollectionObjects(collID int64) ([]int64, error) {
	idx, local, err := cl.SplitID(collID)
	if err != nil {
		return nil, err
	}
	cl.countRoute(idx)
	ids, err := cl.handle(idx).cat.CollectionObjects(local)
	if err != nil {
		return nil, err
	}
	return cl.globalize(idx, ids), nil
}

// EvaluateInCollection runs the query scoped to a collection subtree
// (the containment viewpoint). It routes to the collection's shard:
// owner-scoped collections hold members of that shard only.
func (cl *Cluster) EvaluateInCollection(ctx context.Context, collID int64, q *catalog.Query) ([]int64, error) {
	idx, local, err := cl.SplitID(collID)
	if err != nil {
		return nil, err
	}
	cl.countRoute(idx)
	ids, err := cl.handle(idx).cat.EvaluateInContextCtx(ctx, local, q)
	if err != nil {
		return nil, err
	}
	return cl.globalize(idx, ids), nil
}

// CollectionsContaining returns the global IDs of the collections whose
// subtree holds at least one object matching the query, over the shards
// the query reads (see EvaluateContext).
func (cl *Cluster) CollectionsContaining(q *catalog.Query, fanout bool) ([]int64, error) {
	hs := cl.readSet(q.Owner, fanout)
	per, err := scatter(hs, func(c *catalog.Catalog) ([]int64, error) { return c.CollectionsContaining(q) })
	if err != nil {
		return nil, err
	}
	return cl.mergeIDs(hs, per), nil
}
