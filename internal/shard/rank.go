package shard

import (
	"context"
	"fmt"
	"sort"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/textindex"
)

// Ranked retrieval across shards. BM25 scores depend on corpus-wide
// statistics (document count, average length, per-term document
// frequency), so naive per-shard scoring would rank the same document
// differently depending on which shard holds it. The fan-out read is
// therefore a two-phase scatter:
//
//  1. TextStats on every shard collects its corpus statistics for the
//     query's analyzed terms; the router sums them (textindex.Stats.Merge)
//     into the statistics of the virtual union catalog.
//  2. EvaluateRankedStats on every shard scores with the global
//     statistics, so every shard's scores are exactly what a single
//     catalog holding all the documents would compute.
//
// The merged ranking is then a k-way merge by (score desc, global ID
// asc), truncated to k. Each shard returns its local top-k under the
// global statistics, and any document in the global top-k is
// necessarily in its own shard's top-k, so the truncated merge loses
// nothing. Owner-routed ranked reads (Owner != "") score one shard with
// its local statistics — the same locality trade-off as Evaluate.

// EvaluateRanked runs a BM25 ranked query on the shards it reads
// (routed by owner; fanout forces every shard). One shard scores with
// its own statistics; a fan-out runs the two-phase global-statistics
// scatter and merges by score, which for an owner-scoped query
// reproduces single-catalog ranking exactly, wherever published
// documents hash. ctx reaches every shard's scoring pass.
func (cl *Cluster) EvaluateRanked(ctx context.Context, q *catalog.Query, fanout bool) ([]catalog.ScoredID, error) {
	hs := cl.readSet(q.Owner, fanout)
	if len(hs) == 1 {
		scored, err := hs[0].cat.EvaluateRankedContext(ctx, q)
		if err != nil {
			return nil, err
		}
		return cl.globalizeScored(hs[0].idx, scored), nil
	}
	return cl.rankAll(ctx, hs, q)
}

// rankAll is the fan-out arm of EvaluateRanked over the shards hs.
func (cl *Cluster) rankAll(ctx context.Context, hs []*shardHandle, q *catalog.Query) ([]catalog.ScoredID, error) {
	if q.Rank == nil || len(q.Rank.Terms) == 0 {
		return nil, fmt.Errorf("shard: ranked query has no rank terms")
	}
	// Phase 1: per-shard corpus statistics, summed into the statistics
	// of the union catalog.
	stats, err := scatter(hs, func(c *catalog.Catalog) (textindex.Stats, error) { return c.TextStats(q.Rank.Terms) })
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var global textindex.Stats
	for i := range stats {
		global.Merge(stats[i])
	}
	// Phase 2: score every shard with the global statistics.
	perShard, err := scatter(hs, func(c *catalog.Catalog) ([]catalog.ScoredID, error) {
		return c.EvaluateRankedStats(ctx, q, &global)
	})
	if err != nil {
		return nil, err
	}
	k := q.Rank.K
	if k <= 0 {
		k = catalog.DefaultRankK
	}
	return cl.mergeScored(hs, perShard, k), nil
}

// globalizeScored rewrites one shard's scored local IDs to global IDs,
// preserving rank order.
func (cl *Cluster) globalizeScored(idx int, scored []catalog.ScoredID) []catalog.ScoredID {
	if cl.n == 1 {
		return scored
	}
	out := make([]catalog.ScoredID, len(scored))
	for i, s := range scored {
		out[i] = catalog.ScoredID{ID: cl.GlobalID(idx, s.ID), Score: s.Score}
	}
	return out
}

// mergeScored merges per-shard rankings (each already score-ordered,
// aligned with hs) by (score desc, global ID asc) and truncates to k.
// Scores were computed under identical global statistics, so the order
// matches a single catalog's ranking of the union.
func (cl *Cluster) mergeScored(hs []*shardHandle, perShard [][]catalog.ScoredID, k int) []catalog.ScoredID {
	total := 0
	for _, s := range perShard {
		total += len(s)
	}
	out := make([]catalog.ScoredID, 0, total)
	for i, scored := range perShard {
		out = append(out, cl.globalizeScored(hs[i].idx, scored)...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// SearchRankedContext evaluates a ranked query (see EvaluateRanked) and
// builds the response documents in score order. A one-shard read is
// the shard's own Catalog.SearchRanked: ranking and documents come from
// one pinned snapshot, with no separate statistics pass.
func (cl *Cluster) SearchRankedContext(ctx context.Context, q *catalog.Query, fanout bool) ([]catalog.RankedResponse, error) {
	hs := cl.readSet(q.Owner, fanout)
	if len(hs) == 1 {
		resp, err := hs[0].cat.SearchRanked(ctx, q)
		if err != nil || cl.n == 1 {
			return resp, err
		}
		for i := range resp {
			resp[i].ObjectID = cl.GlobalID(hs[0].idx, resp[i].ObjectID)
		}
		return resp, nil
	}
	scored, err := cl.rankAll(ctx, hs, q)
	if err != nil {
		return nil, err
	}
	gids := make([]int64, len(scored))
	scoreOf := make(map[int64]float64, len(scored))
	for i, s := range scored {
		gids[i] = s.ID
		scoreOf[s.ID] = s.Score
	}
	resp, err := cl.BuildResponse(gids)
	if err != nil {
		return nil, err
	}
	out := make([]catalog.RankedResponse, len(resp))
	for i, r := range resp {
		out[i] = catalog.RankedResponse{ObjectID: r.ObjectID, Score: scoreOf[r.ObjectID], XML: r.XML}
	}
	return out, nil
}

// SearchRanked is SearchRankedContext without a cancellation context
// (see Evaluate).
func (cl *Cluster) SearchRanked(q *catalog.Query, fanout bool) ([]catalog.RankedResponse, error) {
	return cl.SearchRankedContext(context.Background(), q, fanout)
}
