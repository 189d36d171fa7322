package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Snapshot persistence: Save serializes the catalog's definitions and
// data rows; Load rebuilds a catalog over the same schema. The schema
// itself is code (or DSL) and travels separately — Load verifies the
// provided schema matches by name and ordering signature, then replays
// the rows through the normal insert path so all indexes rebuild.
//
// On-disk container (version 2):
//
//	magic    8 bytes  "HCSNAP02"
//	length   u64      gob payload length
//	crc      u32      CRC-32C of the gob payload
//	payload  gob-encoded snapshot struct
//
// The header makes truncation and bit rot loud: Load verifies the length
// and checksum before decoding, so a torn or corrupted snapshot returns
// an error instead of half-loading. SaveFile writes the container
// atomically (temp file + fsync + rename), the checkpoint protocol's
// first half; see durable.go for the WAL side.

const (
	snapshotMagic = "HCSNAP02"
	// snapshotVersion guards the gob payload format. Version 2 added the
	// checksummed container and the WalSeq watermark.
	snapshotVersion = 2
	// maxSnapshotBytes bounds the decoded payload so a corrupt length
	// field cannot drive a giant allocation.
	maxSnapshotBytes = int64(1) << 40
)

// dataTables are the tables whose rows a snapshot carries; definition and
// schema tables are re-derived at load.
var dataTables = []string{TObjects, TAttrData, TElemData, TSubAttrs, TClobs, TCollections, TMembers}

type snapshot struct {
	Version    int
	SchemaName string
	SchemaSig  string
	// WalSeq is the write-ahead log high-water mark whose effects the
	// snapshot contains; recovery replays only records above it.
	WalSeq uint64
	Attrs  []core.AttrDef
	Elems  []core.ElemDef
	Tables map[string][]relstore.Row
}

// schemaSig fingerprints the global ordering so Load rejects a
// mismatched schema.
func schemaSig(s *xmlschema.Schema) string {
	sig := ""
	for _, n := range s.Ordered {
		sig += fmt.Sprintf("%s/%d/%d;", n.Tag, n.Order, n.LastChild)
	}
	return sig
}

// Save writes a snapshot of the catalog (definitions plus all object,
// shredded, CLOB, and collection rows) in the checksummed container
// format.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.saveLocked(w)
}

// saveLocked is Save with c.mu already held (read or write).
func (c *Catalog) saveLocked(w io.Writer) error {
	// The watermark is the PUBLISHED sequence, not the log's LastSeq: in
	// group-commit mode the log may hold records whose staged versions
	// are not yet visible, and the snapshot's tables do not contain
	// them — claiming their sequences would make recovery skip them.
	var seq uint64
	if c.dur != nil {
		seq = c.dur.publishedSeq
	}
	snap := snapshot{
		Version:    snapshotVersion,
		SchemaName: c.Schema.Name,
		SchemaSig:  schemaSig(c.Schema),
		WalSeq:     seq,
		Tables:     make(map[string][]relstore.Row, len(dataTables)),
	}
	for _, d := range c.Reg.Attrs() {
		snap.Attrs = append(snap.Attrs, *d)
	}
	for _, d := range c.Reg.Elems() {
		snap.Elems = append(snap.Elems, *d)
	}
	for _, name := range dataTables {
		t := c.DB.MustTable(name)
		rows := make([]relstore.Row, 0, t.Len())
		t.Scan(func(_ int64, r relstore.Row) bool {
			rows = append(rows, r)
			return true
		})
		snap.Tables[name] = rows
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return err
	}
	var header [20]byte
	copy(header[:8], snapshotMagic)
	binary.LittleEndian.PutUint64(header[8:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[16:], crc32.Checksum(payload.Bytes(), snapshotCRC))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Load rebuilds a catalog from a snapshot over the given schema. The
// schema must match the one the snapshot was written against. Truncated
// or corrupted snapshot bytes return an error; nothing half-loads.
func Load(schema *xmlschema.Schema, opts Options, r io.Reader) (*Catalog, error) {
	c, _, err := loadSnapshot(schema, opts, r)
	return c, err
}

// loadSnapshot is Load exposing the snapshot's WAL watermark, which
// recovery needs to know where replay starts.
func loadSnapshot(schema *xmlschema.Schema, opts Options, r io.Reader) (*Catalog, uint64, error) {
	snap, err := readSnapshot(r)
	if err != nil {
		return nil, 0, err
	}
	if snap.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("catalog: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.SchemaName != schema.Name || snap.SchemaSig != schemaSig(schema) {
		return nil, 0, fmt.Errorf("catalog: snapshot was written against schema %q with a different ordering", snap.SchemaName)
	}
	c, err := Open(schema, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := c.Reg.Restore(snap.Attrs, snap.Elems); err != nil {
		return nil, 0, err
	}
	// The whole restore runs as one relstore transaction: one published
	// version, not a copy-on-write commit per restored row.
	err = c.withTx(func() error {
		// Refresh the mirrored definition tables (Open seeded structural
		// rows; drop and re-mirror so IDs match the restored registry).
		for _, name := range []string{TAttrDef, TElemDef} {
			t := c.wtab(name)
			var ids []int64
			t.Scan(func(id int64, _ relstore.Row) bool {
				ids = append(ids, id)
				return true
			})
			for _, id := range ids {
				t.Delete(id)
			}
		}
		if err := c.syncDefTables(); err != nil {
			return err
		}
		// Replay data rows through the normal insert path so every index
		// rebuilds.
		for _, name := range dataTables {
			t := c.wtab(name)
			for _, row := range snap.Tables[name] {
				if err := checkRowEnvelope(name, row); err != nil {
					return fmt.Errorf("catalog: restoring %w", err)
				}
				if _, err := t.Insert(row); err != nil {
					return fmt.Errorf("catalog: restoring %s: %w", name, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Advance the auto-ID counters past restored IDs.
	c.fixAutoIDs()
	return c, snap.WalSeq, nil
}

// readSnapshot validates the container header and decodes the payload.
func readSnapshot(r io.Reader) (*snapshot, error) {
	var header [20]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("catalog: corrupt snapshot: short header: %w", err)
	}
	if string(header[:8]) != snapshotMagic {
		return nil, fmt.Errorf("catalog: corrupt snapshot: bad magic %q", header[:8])
	}
	length := binary.LittleEndian.Uint64(header[8:])
	sum := binary.LittleEndian.Uint32(header[16:])
	if int64(length) < 0 || int64(length) > maxSnapshotBytes {
		return nil, fmt.Errorf("catalog: corrupt snapshot: implausible payload length %d", length)
	}
	// The declared length is unverified input: read incrementally rather
	// than allocating it up front, so a rotted length field costs at most
	// the bytes actually present before EOF.
	var payload bytes.Buffer
	if length < 1<<20 {
		payload.Grow(int(length))
	}
	if n, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return nil, fmt.Errorf("catalog: corrupt snapshot: truncated payload (%d of %d bytes): %w", n, length, err)
	}
	if crc32.Checksum(payload.Bytes(), snapshotCRC) != sum {
		return nil, fmt.Errorf("catalog: corrupt snapshot: checksum mismatch")
	}
	var snap snapshot
	if err := gob.NewDecoder(&payload).Decode(&snap); err != nil {
		return nil, fmt.Errorf("catalog: corrupt snapshot: %w", err)
	}
	return &snap, nil
}

// fixAutoIDs advances the auto-ID counters past the highest restored
// IDs. The caller holds no locks the tables care about (recovery is
// single-goroutine).
func (c *Catalog) fixAutoIDs() {
	maxID := func(name string, col int) int64 {
		var m int64
		c.DB.MustTable(name).Scan(func(_ int64, r relstore.Row) bool {
			if r[col].I > m {
				m = r[col].I
			}
			return true
		})
		return m
	}
	c.DB.MustTable(TObjects).EnsureAutoID(maxID(TObjects, 0))
	c.DB.MustTable(TCollections).EnsureAutoID(maxID(TCollections, 0))
}

// SaveFile atomically writes a snapshot to path: the container is
// written to path+".tmp", synced to stable storage, and renamed over
// path, so a crash at any instant leaves either the old snapshot or the
// new one — never a torn file. A nil fs uses the real filesystem.
func (c *Catalog) SaveFile(fs faultio.FS, path string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.saveFileLocked(fs, path)
}

// saveFileLocked is SaveFile with c.mu already held (read or write).
func (c *Catalog) saveFileLocked(fs faultio.FS, path string) error {
	if fs == nil {
		fs = faultio.OS{}
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	err = c.saveLocked(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, path)
}

// LoadFile rebuilds a catalog from a snapshot file written by SaveFile.
// A nil fs uses the real filesystem.
func LoadFile(schema *xmlschema.Schema, opts Options, fs faultio.FS, path string) (*Catalog, error) {
	if fs == nil {
		fs = faultio.OS{}
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(schema, opts, f)
}
