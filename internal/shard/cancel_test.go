package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// TestShardCancelledContextReachesEveryShard checks that a cancelled
// request context comes back as context.Canceled from every fan-out
// read of a 4-shard cluster — the structural scatter and both phases of
// the ranked scatter — instead of the shards finishing the work.
func TestShardCancelledContextReachesEveryShard(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 40
	g := workload.New(cfg)
	raw := g.Corpus()
	corpus := make([]*workloadDoc, len(raw))
	for i, d := range raw {
		corpus[i] = &workloadDoc{owner: equivOwner(i), doc: d}
	}
	four, _ := openCluster(t, g, 4, corpus)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	structural := g.MultiQuery(1, 2)
	structural.Owner = ""
	if _, err := four.EvaluateContext(ctx, structural, true); !errors.Is(err, context.Canceled) {
		t.Errorf("fan-out Evaluate: err = %v, want context.Canceled", err)
	}
	if _, _, err := four.SearchPageContext(ctx, structural, true, 0, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("fan-out SearchPage: err = %v, want context.Canceled", err)
	}
	for _, q := range []*catalog.Query{g.RankedQuery(2), g.RankedStructuralQuery(3)} {
		q.Owner = ""
		if _, err := four.EvaluateRanked(ctx, q, true); !errors.Is(err, context.Canceled) {
			t.Errorf("fan-out EvaluateRanked: err = %v, want context.Canceled", err)
		}
		if _, err := four.SearchRankedContext(ctx, q, true); !errors.Is(err, context.Canceled) {
			t.Errorf("fan-out SearchRanked: err = %v, want context.Canceled", err)
		}
	}
}

// TestShardSingleIsIdentity checks the one-shard view of a plain
// catalog: global IDs are the catalog's own, reads answer exactly as
// the catalog does, Rebalance is refused (there is no routing table),
// and Replace swaps the served catalog.
func TestShardSingleIsIdentity(t *testing.T) {
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := shard.Single(cat)
	if cl.Shards() != 1 || cl.Shard(0) != cat {
		t.Fatalf("Single: %d shards, shard 0 %p, want 1 shard serving %p", cl.Shards(), cl.Shard(0), cat)
	}
	gid, err := cl.IngestXML("alice", xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	if objs := cat.Objects(); len(objs) != 1 || objs[0].ID != gid {
		t.Fatalf("global id %d, catalog holds %+v", gid, objs)
	}
	q, err := catalog.ParseQueryJSON([]byte(`{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"convective_precipitation_amount"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cat.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, fanout := range []bool{false, true} {
		got, err := cl.EvaluateContext(t.Context(), q, fanout)
		if err != nil || len(want) != 1 || len(got) != 1 || got[0] != want[0] {
			t.Fatalf("fanout=%v: cluster %v (%v), catalog %v", fanout, got, err, want)
		}
	}
	if err := cl.Rebalance(0, "elsewhere"); err == nil {
		t.Fatal("Rebalance of a single catalog succeeded")
	}

	fresh, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Replace(0, fresh); err != nil {
		t.Fatal(err)
	}
	if cl.Shard(0) != fresh || cl.ObjectCount() != 0 {
		t.Fatalf("after Replace: shard 0 %p with %d objects, want the fresh catalog", cl.Shard(0), cl.ObjectCount())
	}
}

// TestShardReplaceUnderConcurrentReads swaps a one-shard cluster's
// catalog while readers and writers run through it: the swap must not
// race them (make shard runs it under -race), nor fail one of them.
func TestShardReplaceUnderConcurrentReads(t *testing.T) {
	open := func() *catalog.Catalog {
		c, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cl := shard.Single(open())
	q, err := catalog.ParseQueryJSON([]byte(`{"attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"none"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					if _, err := cl.EvaluateContext(context.Background(), q, false); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := cl.IngestXML("alice", shardSwapDoc(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := cl.Replace(0, open()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := cl.Replace(1, open()); err == nil {
		t.Fatal("Replace of a shard outside the cluster succeeded")
	}
}

// shardSwapDoc is a minimal LEAD document with one themekey.
func shardSwapDoc(i int) string {
	return fmt.Sprintf(`<LEADresource><resourceID>swap/%d</resourceID><data><idinfo><keywords><theme>
	  <themekt>none</themekt><themekey>swap-%d</themekey></theme></keywords></idinfo></data></LEADresource>`, i, i)
}
