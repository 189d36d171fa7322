package catalog

import (
	"errors"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// tableState captures the published epoch and every table's row count,
// so a rejected write can be shown to have stored nothing.
func tableState(c *Catalog) string {
	s := fmt.Sprintf("epoch=%d", c.DB.Generation())
	for _, name := range c.DB.TableNames() {
		s += fmt.Sprintf(" %s=%d", name, c.DB.MustTable(name).Len())
	}
	return s
}

// envelopeShred is a synthetic shred result of one grid instance with a
// dx element and one nested grid-stretching instance, every seq field
// set to seq.
func envelopeShred(t *testing.T, c *Catalog, seq int) *core.ShredResult {
	t.Helper()
	grid := c.Reg.LookupAttr("grid", "ARPS", 0, "")
	if grid == nil {
		t.Fatal("no grid definition")
	}
	gs := c.Reg.LookupAttr("grid-stretching", "ARPS", grid.ID, "")
	dx := c.Reg.LookupElem("dx", "ARPS", grid.ID, "")
	if gs == nil || dx == nil {
		t.Fatal("no grid-stretching or dx definition")
	}
	return &core.ShredResult{
		Attrs: []core.AttrRec{{AttrID: grid.ID, Seq: seq}, {AttrID: gs.ID, Seq: seq}},
		Elems: []core.ElemRec{{AttrID: grid.ID, AttrSeq: seq, ElemID: dx.ID, ElemSeq: 1,
			Value: "1000", Num: 1000, HasNum: true}},
		SubAttrs: []core.SubAttrRec{{ChildAttrID: gs.ID, ChildSeq: seq, AncAttrID: grid.ID, AncSeq: seq, Depth: 1}},
	}
}

// TestInstanceEnvelopeBoundaryAccepted stores an instance at the
// largest packable object ID and seq in every seq field, then finds it
// through the full pipeline (probe, rollup, intersect).
func TestInstanceEnvelopeBoundaryAccepted(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	if err := c.mutate(func() error { return c.insertShred(maxInstObject, envelopeShred(t, c, instSeqMask)) }); err != nil {
		t.Fatalf("boundary instance rejected: %v", err)
	}
	q := &Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	g.AddSub(&AttrCriteria{Name: "grid-stretching", Source: "ARPS"})
	ids, err := c.Evaluate(q)
	if err != nil || len(ids) != 1 || ids[0] != maxInstObject {
		t.Fatalf("evaluate = %v, %v; want [%d]", ids, err, maxInstObject)
	}
}

// TestInstanceEnvelopeRejected pushes the object ID and each of the
// four seq fields one past the envelope in turn: every write fails with
// ErrInstanceLimit and stores nothing.
func TestInstanceEnvelopeRejected(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	over := instSeqMask + 1
	cases := []struct {
		name   string
		object int64
		bump   func(*core.ShredResult)
	}{
		{"object", maxInstObject + 1, func(*core.ShredResult) {}},
		{"Attrs.Seq", 2, func(r *core.ShredResult) { r.Attrs[1].Seq = over }},
		{"Elems.AttrSeq", 2, func(r *core.ShredResult) { r.Elems[0].AttrSeq = over }},
		{"SubAttrs.ChildSeq", 2, func(r *core.ShredResult) { r.SubAttrs[0].ChildSeq = over }},
		{"SubAttrs.AncSeq", 2, func(r *core.ShredResult) { r.SubAttrs[0].AncSeq = over }},
	}
	for _, tc := range cases {
		before := tableState(c)
		res := envelopeShred(t, c, 1)
		tc.bump(res)
		err := c.mutate(func() error { return c.insertShred(tc.object, res) })
		if !errors.Is(err, ErrInstanceLimit) {
			t.Errorf("%s: err = %v, want ErrInstanceLimit", tc.name, err)
		}
		if after := tableState(c); after != before {
			t.Errorf("%s: rejected write changed state:\n before %s\n after  %s", tc.name, before, after)
		}
	}
}

// TestIngestEnvelopeRejected drives the object-ID envelope through
// Ingest and IngestBatch: once the next object ID is past the envelope,
// the document is refused and the published state is untouched.
func TestIngestEnvelopeRejected(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	c.DB.MustTable(TObjects).EnsureAutoID(maxInstObject)
	before := tableState(c)
	if _, err := c.IngestXML("scientist", xmlschema.Figure3Document); !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("ingest err = %v, want ErrInstanceLimit", err)
	}
	doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch("scientist", []*xmldoc.Node{doc}, 1); !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("batch err = %v, want ErrInstanceLimit", err)
	}
	if after := tableState(c); after != before {
		t.Fatalf("rejected ingest changed state:\n before %s\n after  %s", before, after)
	}
}

// TestAddAttributeEnvelopeRejected seeds an object whose theme instance
// already sits at the largest packable seq; appending another theme
// would number it one past, so AddAttribute refuses it.
func TestAddAttributeEnvelopeRejected(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	theme := c.Reg.LookupAttr("theme", "", 0, "")
	if theme == nil {
		t.Fatal("no theme definition")
	}
	seed := &core.ShredResult{Attrs: []core.AttrRec{{AttrID: theme.ID, Seq: instSeqMask}}}
	if err := c.mutate(func() error { return c.insertShred(id, seed) }); err != nil {
		t.Fatalf("boundary theme seq rejected: %v", err)
	}
	before := tableState(c)
	if err := c.AddAttribute(id, "scientist", themeFrag(t, "overflow")); !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("add attribute err = %v, want ErrInstanceLimit", err)
	}
	if after := tableState(c); after != before {
		t.Fatalf("rejected add attribute changed state:\n before %s\n after  %s", before, after)
	}
}
