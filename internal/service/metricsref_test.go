package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// documentedFamilies parses the family column of OPERATIONS.md's
// "Metrics reference" table: every backticked name in a row's first
// cell.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "## Metrics reference")
	if !ok {
		t.Fatal("OPERATIONS.md has no Metrics reference section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`([a-z_]+)`")
	out := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = true
		}
	}
	return out
}

// registeredFamilies scrapes /metrics?format=json and returns every
// family name in it (identities with their label sets stripped).
func registeredFamilies(t *testing.T, url string) map[string]bool {
	t.Helper()
	code, body := get(t, url+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var st obs.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	add := func(id string) {
		name, _, _ := strings.Cut(id, "{")
		out[name] = true
	}
	for id := range st.Counters {
		add(id)
	}
	for id := range st.Gauges {
		add(id)
	}
	for id := range st.Histograms {
		add(id)
	}
	return out
}

// scriptedMix drives every instrumented layer through HTTP: ingest,
// definitions, publish, collections, structural and ranked reads,
// fetch.
func scriptedMix(t *testing.T, url string) {
	t.Helper()
	mustStatus := func(code int, body string, want int) {
		t.Helper()
		if code != want {
			t.Fatalf("status %d (%s), want %d", code, body, want)
		}
	}
	for i := 0; i < 4; i++ {
		code, body := post(t, url+"/ingest?owner=u"+string(rune('a'+i)), "application/xml", xmlschema.Figure3Document)
		mustStatus(code, body, http.StatusCreated)
	}
	code, body := post(t, url+"/define/attr", "application/json", `{"name":"mix","source":"ref","owner":"ua"}`)
	mustStatus(code, body, http.StatusCreated)
	code, body = post(t, url+"/collections", "application/json", `{"name":"c","owner":"ua"}`)
	mustStatus(code, body, http.StatusCreated)
	q := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"convective_precipitation_amount"}]}]}`
	for _, path := range []string{"/query", "/query", "/query?fanout=1", "/search?limit=1", "/collections/containing"} {
		code, body = post(t, url+path, "application/json", q)
		mustStatus(code, body, http.StatusOK)
	}
	code, body = post(t, url+"/search", "application/json", `{"rank":{"terms":["precipitation"],"k":3}}`)
	mustStatus(code, body, http.StatusOK)
	code, body = get(t, url+"/objects")
	mustStatus(code, body, http.StatusOK)
	var objs []struct{ ID int64 }
	if err := json.Unmarshal([]byte(body), &objs); err != nil || len(objs) == 0 {
		t.Fatalf("objects: %v %s", err, body)
	}
	code, body = get(t, url+"/fetch?id="+itoa(objs[0].ID))
	mustStatus(code, body, http.StatusOK)
	code, body = post(t, url+"/objects/"+itoa(objs[0].ID)+"/publish", "", "")
	mustStatus(code, body, http.StatusOK)
}

// TestMetricsReferenceCoversEveryFamily guards OPERATIONS.md against
// drift: after a scripted request mix, every metric family registered
// on a durable group-commit single node (served as a one-shard
// cluster) and on a 4-shard cluster must appear in the Metrics
// reference table.
func TestMetricsReferenceCoversEveryFamily(t *testing.T) {
	single, err := catalog.OpenDurable(xmlschema.MustLEAD(),
		catalog.Options{Metrics: obs.NewRegistry()},
		catalog.DurabilityOptions{FS: faultio.NewMemFS(), WALPath: "ref.wal", GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	four, err := shard.Open(shard.Options{
		Schema:     xmlschema.MustLEAD(),
		Root:       "ref",
		Shards:     4,
		Catalog:    catalog.Options{Metrics: obs.NewRegistry()},
		Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()

	documented := documentedFamilies(t)
	for name, srv := range map[string]*Server{"single": New(single), "4-shard": NewSharded(four)} {
		ts := httptest.NewServer(srv.Handler())
		scriptedMix(t, ts.URL)
		for fam := range registeredFamilies(t, ts.URL) {
			if !documented[fam] {
				t.Errorf("%s: metric family %s is missing from OPERATIONS.md's Metrics reference", name, fam)
			}
		}
		ts.Close()
	}
}
