// Ranked-retrieval suite: the rank operator's guard rails, the
// epoch-stamped index rebuild, and the content-and-structure
// composition invariants checked against the DOM oracle — in the
// external test package for the same baseline-import reason as the
// equivalence suite.
package catalog_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// openRanked builds a catalog over the workload corpus for the ranked
// tests.
func openRanked(t *testing.T, g *workload.Generator, opts catalog.Options, docs []*xmldoc.Node) *catalog.Catalog {
	t.Helper()
	c, err := catalog.Open(g.Schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if _, err := c.Ingest("lab", d); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	return c
}

func TestRankedGuards(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 10
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	// A ranked query refuses the plain evaluate entry points: scores
	// would be silently dropped.
	rq := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"pressure"}}}
	if _, err := c.Evaluate(rq); err == nil {
		t.Fatal("Evaluate accepted a ranked query")
	}
	// And the ranked entry point refuses a query with no terms.
	if _, err := c.EvaluateRanked(&catalog.Query{}); err == nil {
		t.Fatal("EvaluateRanked accepted a query with no rank spec")
	}
	if _, err := c.EvaluateRanked(&catalog.Query{Rank: &catalog.RankSpec{}}); err == nil {
		t.Fatal("EvaluateRanked accepted an empty term list")
	}

	// DisableTextIndex turns every ranked entry point into a typed
	// refusal.
	off := openRanked(t, g, catalog.Options{DisableTextIndex: true}, g.Corpus())
	if _, err := off.EvaluateRanked(rq); !errors.Is(err, catalog.ErrTextIndexDisabled) {
		t.Fatalf("disabled index: got %v, want ErrTextIndexDisabled", err)
	}
	if _, err := off.TextStats([]string{"pressure"}); !errors.Is(err, catalog.ErrTextIndexDisabled) {
		t.Fatalf("disabled TextStats: got %v, want ErrTextIndexDisabled", err)
	}
}

// TestRankedEpochRebuild proves the text index is epoch-stamped like
// the other read layers: a mutation invalidates it, the next ranked
// query rebuilds it over the new snapshot and sees the new document,
// and an unchanged catalog never rebuilds.
func TestRankedEpochRebuild(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 20
	g := workload.New(cfg)
	reg := obs.NewRegistry()
	c := openRanked(t, g, catalog.Options{Metrics: reg}, g.Corpus())

	q := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"radar", "reflectivity"}, K: 100}}
	first, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvaluateRanked(q); err != nil {
		t.Fatal(err)
	}
	if builds := reg.Snapshot()["textindex_builds_total"]; builds != 1 {
		t.Fatalf("unchanged catalog rebuilt the index: builds=%v, want 1", builds)
	}

	// Ingest one more document; its keywords must be rankable.
	newID, err := c.Ingest("lab", g.Document(len(g.Corpus())))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if builds := reg.Snapshot()["textindex_builds_total"]; builds != 2 {
		t.Fatalf("mutation did not trigger a rebuild: builds=%v, want 2", builds)
	}
	// The rebuilt index must be able to surface the new document for a
	// term it carries (every workload document cycles the same themekey
	// vocabulary, so the broad query above admits it).
	found := false
	for _, s := range second {
		if s.ID == newID {
			found = true
		}
	}
	if !found && len(second) > len(first) {
		t.Fatalf("rebuilt ranking grew (%d -> %d) but never surfaced the new document %d",
			len(first), len(second), newID)
	}
}

// TestRankedComposition checks the content-and-structure invariants:
// ranked+structural results are exactly the structural DOM-oracle
// matches that score, ordered by (score desc, ID asc).
func TestRankedComposition(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 80
	g := workload.New(cfg)
	corpus := g.Corpus()
	c := openRanked(t, g, catalog.Options{}, corpus)

	oracle := func(q *catalog.Query) map[int64]bool {
		member := map[int64]bool{}
		for i, d := range corpus {
			if baseline.DocMatches(g.Schema, d, q) {
				member[int64(i+1)] = true
			}
		}
		return member
	}

	for i := 0; i < 40; i++ {
		q := g.RankedStructuralQuery(i)
		q.Rank.K = len(corpus) + 1 // unbounded: every scoring admitted doc
		structural := *q
		structural.Rank = nil
		member := oracle(&structural)

		got, err := c.EvaluateRanked(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for j, s := range got {
			if !member[s.ID] {
				t.Fatalf("query %d: ranked result %d not admitted by the structural oracle", i, s.ID)
			}
			if s.Score <= 0 {
				t.Fatalf("query %d: non-positive score %v", i, s.Score)
			}
			if j > 0 {
				prev := got[j-1]
				if s.Score > prev.Score || (s.Score == prev.Score && s.ID <= prev.ID) {
					t.Fatalf("query %d: ranking out of order at %d: %+v after %+v", i, j, s, prev)
				}
			}
		}
	}
}

// TestRankedTopKTruncation: the k bound returns exactly the first k of
// the unbounded ranking.
func TestRankedTopKTruncation(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 60
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	full := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"precipitation", "pressure"}, K: 1000}}
	all, err := c.EvaluateRanked(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Fatalf("broad ranking only matched %d docs — corpus drifted", len(all))
	}
	for _, k := range []int{1, 3, 10} {
		bounded := &catalog.Query{Rank: &catalog.RankSpec{Terms: full.Rank.Terms, K: k}}
		got, err := c.EvaluateRanked(bounded)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d returned %d results", k, len(got))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("k=%d result %d: %+v != unbounded prefix %+v", k, i, got[i], all[i])
			}
		}
	}
}

// TestRankedConcurrentWithWriter runs ranked readers against a
// concurrent ingest writer: every rebuild of the epoch-stamped index
// races real queries (run under -race by the Makefile search target).
func TestRankedConcurrentWithWriter(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 30
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := g.RankedQuery(r*1000 + i)
				if _, err := c.EvaluateRanked(q); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				i++
			}
		}(r)
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Ingest("lab", g.Document(cfg.Docs+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRankedSearchResponses: SearchRanked zips scores with the rebuilt
// documents in rank order, and the documents are real response XML.
func TestRankedSearchResponses(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 40
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	q := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"temperature", "humidity"}, K: 8}}
	scored, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.SearchRanked(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(scored) {
		t.Fatalf("SearchRanked returned %d docs for %d scored IDs", len(resp), len(scored))
	}
	for i, r := range resp {
		if r.ObjectID != scored[i].ID || r.Score != scored[i].Score {
			t.Fatalf("result %d: (%d, %v) != scored (%d, %v)", i, r.ObjectID, r.Score, scored[i].ID, scored[i].Score)
		}
		if !strings.Contains(r.XML, "<LEADresource>") {
			t.Fatalf("result %d: response is not a rebuilt document: %.80q", i, r.XML)
		}
	}
}
