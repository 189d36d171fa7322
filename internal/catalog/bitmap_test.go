package catalog

import (
	"errors"
	"testing"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// TestBitmapObservability asserts the bitmap pipeline feeds the new
// instrument families: container-kind counters and the intersect
// cardinality histogram.
func TestBitmapObservability(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLEADCatalog(t, Options{Metrics: reg})
	ingestFig3(t, c)
	q := &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(0))
	q.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	if _, err := c.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	containers := uint64(0)
	for _, kind := range []string{"array", "bitmap", "run"} {
		containers += reg.Counter("query_bitmap_containers_total", obs.L("kind", kind)).Value()
	}
	if containers == 0 {
		t.Error("query_bitmap_containers_total never incremented")
	}
	if reg.Histogram("query_intersect_cardinality").Count() == 0 {
		t.Error("query_intersect_cardinality never observed")
	}
	// The postings layer memoized the probes.
	if st := c.CacheStats(); st.Postings.Misses == 0 {
		t.Errorf("expected postings-layer traffic: %+v", st)
	}
}

// TestInstKeyRange pins the packing envelope and the typed error rows
// outside it fail closed with.
func TestInstKeyRange(t *testing.T) {
	k, err := instKey(7, 3)
	if err != nil || k != 7<<instSeqBits|3 {
		t.Fatalf("instKey(7,3) = %d, %v", k, err)
	}
	if k, err := instKey(maxInstObject, instSeqMask); err != nil || k != uint64(maxInstObject)<<instSeqBits|instSeqMask {
		t.Fatalf("instKey(max) = %d, %v", k, err)
	}
	for _, bad := range [][2]int64{{-1, 0}, {0, -1}, {0, instSeqMask + 1}, {maxInstObject + 1, 0}} {
		if _, err := instKey(bad[0], bad[1]); !errors.Is(err, ErrInstanceLimit) {
			t.Errorf("instKey(%d,%d) err = %v, want ErrInstanceLimit", bad[0], bad[1], err)
		}
	}
}
