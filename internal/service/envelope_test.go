package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// exhaustObjectIDs advances the catalog's object-ID counter far past
// the 2^43 instance-key envelope, so the next ingest is refused with
// catalog.ErrInstanceLimit.
func exhaustObjectIDs(c *catalog.Catalog) {
	c.DB.MustTable(catalog.TObjects).EnsureAutoID(1 << 62)
}

// TestIngestEnvelopeRejection422 checks that an instance-envelope
// rejection answers POST /ingest with 422 on a single node and on a
// cluster alike, and stores nothing.
func TestIngestEnvelopeRejection422(t *testing.T) {
	ingest := func(t *testing.T, url string) {
		t.Helper()
		status, body := post(t, url+"/ingest?owner=alice", "application/xml", shardDocXML(1))
		if status != http.StatusUnprocessableEntity || !strings.Contains(body, "instance-key envelope") {
			t.Fatalf("status %d (%s), want 422 with the envelope error", status, body)
		}
	}

	t.Run("single", func(t *testing.T) {
		ts, cat := newTestServer(t)
		exhaustObjectIDs(cat)
		ingest(t, ts.URL)
		if n := cat.ObjectCount(); n != 0 {
			t.Fatalf("rejected ingest stored %d object(s)", n)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		cl, err := shard.Open(shard.Options{
			Schema:     xmlschema.MustLEAD(),
			Root:       "svc",
			Shards:     2,
			Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.ForEachShard(func(_ int, c *catalog.Catalog) error {
			exhaustObjectIDs(c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewSharded(cl).Handler())
		defer ts.Close()
		ingest(t, ts.URL)
		if n := cl.ObjectCount(); n != 0 {
			t.Fatalf("rejected ingest stored %d object(s)", n)
		}
	})
}
