package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// The HTTP conformance suite runs one route table against a single
// in-memory catalog served as a one-shard cluster and against a
// 4-shard cluster: every route must answer on both (never 404/405),
// with the same JSON keys, and be counted in http_requests_total.

// conformance is one deployment under test.
type conformance struct {
	name string
	cl   *shard.Cluster
	url  string
}

func newConformance(t *testing.T, name string, cl *shard.Cluster) *conformance {
	t.Helper()
	srv := NewSharded(cl)
	o, err := ontology.Parse(ontology.CFKeywords)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOntology(o)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &conformance{name: name, cl: cl, url: ts.URL}
}

// conformanceDeployments builds the two deployments, each with its own
// metrics registry.
func conformanceDeployments(t *testing.T) []*conformance {
	t.Helper()
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	four, err := shard.Open(shard.Options{
		Schema:     xmlschema.MustLEAD(),
		Root:       "conf",
		Shards:     4,
		Catalog:    catalog.Options{Metrics: obs.NewRegistry()},
		Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = four.Close() })
	return []*conformance{
		newConformance(t, "single", shard.Single(cat)),
		newConformance(t, "4-shard", four),
	}
}

// splitOwners returns two owners the 4-shard cluster places on
// different shards.
func splitOwners(cl *shard.Cluster) (string, string) {
	a := "owner-0"
	for i := 1; ; i++ {
		if b := fmt.Sprintf("owner-%d", i); cl.ShardFor(b) != cl.ShardFor(a) {
			return a, b
		}
	}
}

// keywordDoc is a LEAD document tagged with one CF keyword.
func keywordDoc(key string) string {
	return `<LEADresource><resourceID>` + key + `</resourceID><data><idinfo><keywords>
	  <theme><themekt>CF</themekt><themekey>` + key + `</themekey></theme>
	</keywords></idinfo></data></LEADresource>`
}

// do sends one request and returns the status and body.
func (d *conformance) do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	return reqJSON(t, method, d.url+path, body)
}

// mustID sends a creating request and returns the "id" it answers.
func (d *conformance) mustID(t *testing.T, path, body string) int64 {
	t.Helper()
	code, out := d.do(t, "POST", path, body)
	if code != http.StatusCreated {
		t.Fatalf("%s: POST %s: %d %s", d.name, path, code, out)
	}
	var resp map[string]int64
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	return resp["id"]
}

// confRoute is one request of the route table. pattern is the mux
// pattern (the endpoint label); raw routes answer non-JSON bodies.
type confRoute struct {
	pattern, method, path, body string
	raw                         bool
}

// jsonKeys renders the top-level key set of a JSON object (or of an
// array's first element) for cross-deployment comparison.
func jsonKeys(body string) string {
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return "non-json"
	}
	prefix := ""
	if arr, ok := v.([]any); ok {
		if len(arr) == 0 {
			return "[]"
		}
		v, prefix = arr[0], "[]"
	}
	m, ok := v.(map[string]any)
	if !ok {
		return prefix + "scalar"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return prefix + strings.Join(keys, ",")
}

func TestShardHTTPConformance(t *testing.T) {
	deps := conformanceDeployments(t)
	ownerA, ownerB := splitOwners(deps[1].cl)
	const cf = `{"attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"CF"}]}]}`
	const broad = `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"precipitation"}]}]}`

	keys := map[string][]string{} // route index -> JSON keys per deployment
	for _, d := range deps {
		// Fixture, written over the wire: A owns two documents and a
		// project with one experiment holding A's first document; B owns
		// one document on another shard (of the 4-shard cluster).
		idA := d.mustID(t, "/ingest?owner="+ownerA, keywordDoc("convective_precipitation_amount"))
		d.mustID(t, "/ingest?owner="+ownerA, keywordDoc("air_temperature"))
		idB := d.mustID(t, "/ingest?owner="+ownerB, keywordDoc("eastward_wind"))
		proj := d.mustID(t, "/collections", `{"name":"proj","owner":"`+ownerA+`"}`)
		exp := d.mustID(t, "/collections", fmt.Sprintf(`{"name":"exp","owner":%q,"parent_id":%d}`, ownerA, proj))

		routes := []confRoute{
			{pattern: "POST /define/attr", method: "POST", path: "/define/attr", body: `{"name":"confattr","source":"conf","owner":"` + ownerA + `"}`},
			{pattern: "POST /define/elem", method: "POST", path: "/define/elem", body: `{"name":"confelem","source":"conf","attr_id":1,"type":"string","owner":"` + ownerA + `"}`},
			{pattern: "PUT /collections/{id}/objects/{oid}", method: "PUT", path: fmt.Sprintf("/collections/%d/objects/%d", exp, idA)},
			{pattern: "POST /objects/{id}/publish", method: "POST", path: fmt.Sprintf("/objects/%d/publish", idA)},
			{pattern: "POST /ingest", method: "POST", path: "/ingest?owner=" + ownerB, body: keywordDoc("northward_wind")},
			{pattern: "POST /query", method: "POST", path: "/query", body: cf},
			{pattern: "POST /query", method: "POST", path: "/query?fanout=1", body: cf},
			{pattern: "POST /query", method: "POST", path: fmt.Sprintf("/query?collection=%d", proj), body: cf},
			{pattern: "POST /query", method: "POST", path: "/query?expand=1", body: broad},
			{pattern: "POST /search", method: "POST", path: "/search?limit=2", body: cf},
			{pattern: "POST /search", method: "POST", path: fmt.Sprintf("/search?collection=%d", proj), body: cf},
			{pattern: "POST /search", method: "POST", path: "/search?expand=1&fanout=1", body: broad},
			{pattern: "POST /search", method: "POST", path: "/search?limit=1", body: `{"rank":{"terms":["convective"],"k":5}}`},
			{pattern: "GET /objects", method: "GET", path: "/objects"},
			{pattern: "GET /fetch", method: "GET", path: fmt.Sprintf("/fetch?id=%d", idA), raw: true},
			{pattern: "GET /schema", method: "GET", path: "/schema", raw: true},
			{pattern: "GET /defs", method: "GET", path: "/defs"},
			{pattern: "GET /collections", method: "GET", path: "/collections"},
			{pattern: "GET /collections/{id}/objects", method: "GET", path: fmt.Sprintf("/collections/%d/objects", proj)},
			{pattern: "POST /collections/containing", method: "POST", path: "/collections/containing", body: cf},
			{pattern: "DELETE /collections/{id}/objects/{oid}", method: "DELETE", path: fmt.Sprintf("/collections/%d/objects/%d", exp, idA)},
			{pattern: "POST /objects/{id}/unpublish", method: "POST", path: fmt.Sprintf("/objects/%d/unpublish", idA)},
			{pattern: "GET /healthz", method: "GET", path: "/healthz"},
			{pattern: "GET /shardz", method: "GET", path: "/shardz"},
			{pattern: "GET /debug/tracez", method: "GET", path: "/debug/tracez"},
			{pattern: "GET /debug/cachez", method: "GET", path: "/debug/cachez"},
			{pattern: "GET /debug/durabilityz", method: "GET", path: "/debug/durabilityz?shard=0"},
			{pattern: "GET /wal/stream", method: "GET", path: "/wal/stream?from=0", raw: true},
			{pattern: "GET /wal/snapshot", method: "GET", path: "/wal/snapshot", raw: true},
			{pattern: "POST /rebalance", method: "POST", path: "/rebalance?shard=0&dir=conf/moved", raw: true},
			{pattern: "GET /metrics", method: "GET", path: "/metrics", raw: true},
		}
		for i, rt := range routes {
			code, body := d.do(t, rt.method, rt.path, rt.body)
			if code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
				t.Errorf("%s: %s %s: %d %s", d.name, rt.method, rt.path, code, body)
			}
			if !rt.raw {
				k := fmt.Sprintf("%d %s", i, rt.pattern)
				keys[k] = append(keys[k], jsonKeys(body))
			}
		}

		// ?collection and ?expand answer the same sets on both (the table
		// removed the membership; restore it).
		if code, out := d.do(t, "PUT", fmt.Sprintf("/collections/%d/objects/%d", exp, idA), ""); code != http.StatusOK {
			t.Fatalf("%s: membership: %d %s", d.name, code, out)
		}
		for path, body := range map[string]string{
			fmt.Sprintf("/query?collection=%d", proj): cf,
			"/query?expand=1":                         broad,
		} {
			if code, out := d.do(t, "POST", path, body); code != http.StatusOK || out != fmt.Sprintf("{\"ids\":[%d]}\n", idA) {
				t.Errorf("%s: POST %s: %d %s, want [%d]", d.name, path, code, out, idA)
			}
		}
		// /defs answers the broadcast definitions from shard 0.
		if _, out := d.do(t, "GET", "/defs", ""); !strings.Contains(out, "confattr") {
			t.Errorf("%s: /defs lacks the registered definition: %s", d.name, out)
		}
		// /healthz carries the shard count.
		if _, out := d.do(t, "GET", "/healthz", ""); !strings.Contains(out, fmt.Sprintf(`"shards":%d`, d.cl.Shards())) {
			t.Errorf("%s: /healthz: %s", d.name, out)
		}
		// Per-shard endpoints take ?shard=i and refuse one out of range.
		n := d.cl.Shards()
		for _, p := range []string{"/wal/stream", "/wal/snapshot", "/debug/tracez", "/debug/cachez", "/debug/durabilityz"} {
			for _, bad := range []string{fmt.Sprint(n), "-1", "x"} {
				if code, out := d.do(t, "GET", p+"?shard="+bad, ""); code != http.StatusBadRequest {
					t.Errorf("%s: %s?shard=%s: %d %s, want 400", d.name, p, bad, code, out)
				}
			}
			if code, out := d.do(t, "GET", fmt.Sprintf("/debug/cachez?shard=%d", n-1), ""); code != http.StatusOK {
				t.Errorf("%s: /debug/cachez?shard=%d: %d %s", d.name, n-1, code, out)
			}
		}
		// Every route is instrumented.
		_, metrics := d.do(t, "GET", "/metrics", "")
		counted := map[string]bool{}
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, "http_requests_total{"); ok {
				if _, ep, ok := strings.Cut(rest, `endpoint="`); ok {
					counted[ep[:strings.IndexByte(ep, '"')]] = true
				}
			}
		}
		for _, rt := range routes {
			if !counted[rt.pattern] {
				t.Errorf("%s: no http_requests_total series for %q", d.name, rt.pattern)
			}
		}

		// Collections are owner-scoped: links across shards answer 422
		// with the typed shard error; on one shard they succeed.
		cross := []struct{ method, path, body string }{
			{"PUT", fmt.Sprintf("/collections/%d/objects/%d", proj, idB), ""},
			{"DELETE", fmt.Sprintf("/collections/%d/objects/%d", proj, idB), ""},
			{"POST", "/collections", fmt.Sprintf(`{"name":"b","owner":%q,"parent_id":%d}`, ownerB, proj)},
		}
		for _, c := range cross {
			code, out := d.do(t, c.method, c.path, c.body)
			split := d.cl.Shards() > 1
			if split && (code != http.StatusUnprocessableEntity || !strings.Contains(out, shard.ErrCrossShard.Error())) {
				t.Errorf("%s: cross-shard %s %s: %d %s, want 422 %q", d.name, c.method, c.path, code, out, shard.ErrCrossShard)
			}
			if !split && code >= 300 {
				t.Errorf("%s: %s %s: %d %s", d.name, c.method, c.path, code, out)
			}
		}
		// /rebalance: 409 on a single node, a live move on a cluster.
		code, out := d.do(t, "POST", "/rebalance?shard=1&dir=conf/moved-1", "")
		if want := map[bool]int{false: http.StatusConflict, true: http.StatusOK}[d.cl.Shards() > 1]; code != want {
			t.Errorf("%s: /rebalance: %d %s, want %d", d.name, code, out, want)
		}
	}

	for route, ks := range keys {
		if len(ks) != 2 || ks[0] != ks[1] {
			t.Errorf("%s: JSON keys differ: single %q, 4-shard %q", route, ks[0], ks[len(ks)-1])
		}
	}
}
