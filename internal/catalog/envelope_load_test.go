package catalog

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// outOfEnvelopeRow is an attr_data row for object 1 whose seq_id is
// 2^20 — one past the instance-key envelope.
func outOfEnvelopeRow() relstore.Row {
	return relstore.Row{relstore.Int(1), relstore.Int(1), relstore.Int(instSeqMask + 1), relstore.Null()}
}

// craftedRecord is a log record payload inserting outOfEnvelopeRow, as
// a primary that predates the write-boundary check could have logged.
func craftedRecord(t *testing.T) []byte {
	t.Helper()
	payload, err := encodeOps([]relstore.TableOp{{Table: TAttrData, Kind: relstore.OpInsert, Row: outOfEnvelopeRow()}})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestApplyWALRefusesOutOfEnvelopeRow checks that a follower refuses a
// record carrying a row past the envelope with ErrInstanceLimit, and
// that neither its cursor nor its tables move.
func TestApplyWALRefusesOutOfEnvelopeRow(t *testing.T) {
	primary, err := OpenDurable(xmlschema.MustLEAD(), Options{},
		DurabilityOptions{FS: faultio.NewMemFS(), WALPath: "p.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.IngestXML("scientist", xmlschema.Figure3Document); err != nil {
		t.Fatal(err)
	}
	recs, last, _, err := primary.WALSince(0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("primary log: %d records, %v", len(recs), err)
	}
	f, err := OpenFollower(xmlschema.MustLEAD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyWAL(recs); err != nil {
		t.Fatal(err)
	}
	before := tableState(f)
	err = f.ApplyWAL([]wal.Record{{Seq: last + 1, Payload: craftedRecord(t)}})
	if !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("ApplyWAL err = %v, want ErrInstanceLimit", err)
	}
	if got := f.AppliedSeq(); got != last {
		t.Fatalf("cursor moved to %d on a refused record, want %d", got, last)
	}
	if after := tableState(f); after != before {
		t.Fatalf("refused record changed the follower:\n before %s\n after  %s", before, after)
	}
}

// TestRecoveryRefusesOutOfEnvelopeRow checks that crash recovery
// refuses a log holding the same record instead of loading a row no
// query could pack.
func TestRecoveryRefusesOutOfEnvelopeRow(t *testing.T) {
	mem := faultio.NewMemFS()
	w, err := wal.Open(mem, "c.wal", func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(craftedRecord(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{FS: mem, WALPath: "c.wal"})
	if !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("OpenDurable err = %v, want ErrInstanceLimit", err)
	}
}

// TestLoadFollowerRefusesOutOfEnvelopeSnapshot checks that a snapshot
// carrying the same row is refused at load, by LoadFollower (replica
// bootstrap) and Load alike.
func TestLoadFollowerRefusesOutOfEnvelopeSnapshot(t *testing.T) {
	c, err := Open(xmlschema.MustLEAD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestXML("scientist", xmlschema.Figure3Document); err != nil {
		t.Fatal(err)
	}
	// Bypass insertShred, as an older writer could have.
	if err := c.withTx(func() error {
		_, err := c.wtab(TAttrData).Insert(outOfEnvelopeRow())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := c.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFollower(xmlschema.MustLEAD(), Options{}, bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("LoadFollower err = %v, want ErrInstanceLimit", err)
	}
	if _, err := Load(xmlschema.MustLEAD(), Options{}, bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrInstanceLimit) {
		t.Fatalf("Load err = %v, want ErrInstanceLimit", err)
	}
}
