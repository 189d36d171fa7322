// The operator matrix lives in the external test package so it can use
// the baseline package's DOM oracle (baseline imports catalog, so an
// internal test would cycle).
package catalog_test

import (
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// domCorpus opens a LEAD catalog with the ARPS grid definitions and
// ingests the Figure 3 document plus dx variants, so range and
// inequality predicates discriminate. It returns the catalog and an
// oracle evaluating a query against the parsed documents (object IDs
// are ingest order, 1-based).
func domCorpus(t *testing.T, opts catalog.Options) (*catalog.Catalog, func(*catalog.Query) []int64) {
	t.Helper()
	schema := xmlschema.MustLEAD()
	c, err := catalog.Open(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := c.RegisterAttr("grid", "ARPS", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dx", "dy", "dz"} {
		if _, err := c.RegisterElem(e, "ARPS", grid.ID, core.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := c.RegisterAttr("grid-stretching", "ARPS", grid.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dzmin", "reference-height"} {
		if _, err := c.RegisterElem(e, "ARPS", gs.ID, core.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}

	var docs []*xmldoc.Node
	for _, dx := range []string{"", "500", "1000", "2000", "4000"} {
		doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
		if err != nil {
			t.Fatal(err)
		}
		if dx != "" {
			for _, a := range doc.FindAll("attr") {
				if a.ChildText("attrlabl") == "dx" {
					a.Child("attrv").Text = dx
				}
			}
		}
		if _, err := c.IngestXML("scientist", doc.String()); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return c, func(q *catalog.Query) []int64 {
		var ids []int64
		for i, d := range docs {
			if baseline.DocMatches(schema, d, q) {
				ids = append(ids, int64(i+1))
			}
		}
		return ids
	}
}

// TestBitmapMatchesDOMOperators sweeps every comparison operator,
// numeric and string values, OneOf expansion, and the nested rollup,
// asserting the bitmap pipeline and the DOM oracle return identical
// object IDs.
func TestBitmapMatchesDOMOperators(t *testing.T) {
	c, oracle := domCorpus(t, catalog.Options{})

	dxQ := func(op relstore.CmpOp, v relstore.Value) *catalog.Query {
		q := &catalog.Query{}
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", op, v)
		return q
	}
	var queries []*catalog.Query
	for _, op := range []relstore.CmpOp{relstore.OpEq, relstore.OpNe, relstore.OpLt, relstore.OpLe, relstore.OpGt, relstore.OpGe} {
		queries = append(queries,
			dxQ(op, relstore.Int(1000)),
			dxQ(op, relstore.Float(2000)),
			dxQ(op, relstore.Int(-5)), // matches all (Ne/Gt/Ge) or none (Eq/Lt/Le)
		)
		// String comparisons probe the sval index.
		sq := &catalog.Query{}
		sq.Attr("theme", "").AddElem("themekt", "", op, relstore.Str("CF NetCDF"))
		queries = append(queries, sq)
	}
	// OneOf over mixed hit/miss values.
	oq := &catalog.Query{}
	oq.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str("x")).
		Elems[0].OneOf = []relstore.Value{
		relstore.Str("convective_precipitation_amount"),
		relstore.Str("no_such_keyword"),
	}
	queries = append(queries, oq)
	// Nested containment rollup plus a second top-level criterion.
	nq := &catalog.Query{}
	ng := nq.Attr("grid", "ARPS")
	ng.AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(1000))
	sub := &catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	ng.AddSub(sub)
	nq.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	queries = append(queries, nq)
	// No-element criterion: every instance of the definition.
	eq := &catalog.Query{}
	eq.Attr("grid", "ARPS")
	queries = append(queries, eq)

	some := 0
	for i, q := range queries {
		want := oracle(q)
		got, err := c.Evaluate(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: bitmap %v != DOM oracle %v", i, got, want)
		}
		if len(want) > 0 {
			some++
		}
	}
	if some < len(queries)/3 {
		t.Fatalf("only %d/%d operator queries matched anything", some, len(queries))
	}
}

// TestBitmapMatchesDOMAblation runs the recursive-rollup (A1, inverted
// list disabled) variant against the DOM oracle.
func TestBitmapMatchesDOMAblation(t *testing.T) {
	c, oracle := domCorpus(t, catalog.Options{DisableInvertedList: true})
	q := &catalog.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpLe, relstore.Int(2000))
	sub := &catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	g.AddSub(sub)
	want := oracle(q)
	got, err := c.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("ablation: bitmap %v != DOM oracle %v", got, want)
	}
}
