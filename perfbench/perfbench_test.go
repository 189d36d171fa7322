package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/service"
)

// tiny shrinks a workload to test scale.
func tiny(spec workloadSpec) workloadSpec {
	spec.docs = 200
	spec.setups = 1
	spec.tracedOps = 40
	return spec
}

func streamBytes(spec workloadSpec, seed int64, n int) []byte {
	s := newOpStream(spec, newCorpus(seed, spec.docs, spec.extraDocs()), seed)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.WriteString(s.at(i).describe())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range workloads {
		a, b := streamBytes(spec, 7, 2000), streamBytes(spec, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", spec.name)
		}
		if bytes.Equal(a, streamBytes(spec, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", spec.name)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEmitsDeclaredMetrics runs every workload at tiny scale against
// a freshly built mdserver, untraced and traced, and checks the result
// line carries exactly the declared metric names and units.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mdserver and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mdserver")
	build := exec.Command("go", "build", "-o", bin, "github.com/gridmeta/hybridcat/cmd/mdserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mdserver: %v\n%s", err, out)
	}
	wantE2E, wantLayer := declared(t)
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				spec: tiny(spec), seed: 3, window: time.Second, trace: trace, server: bin,
				runDir: filepath.Join(dir, spec.name), verbose: io.Discard,
			}
			res, detail, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v %v", spec.name, trace,
					res.Correct, res.Failed, res.Attempted, detail["window"], detail["traced"])
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", spec.name, trace, len(res.Metrics), len(want))
			}
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q (declared: %v)", spec.name, trace, name, v.Unit, unit, ok)
				}
			}
		}
	}
}

// dropOneID wraps a handler so every non-empty POST /query answer loses
// its last ID.
func dropOneID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var v struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err == nil && len(v.IDs) > 0 {
			v.IDs = v.IDs[:len(v.IDs)-1]
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(v)
			return
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

func TestVerificationCatchesADroppedID(t *testing.T) {
	spec := tiny(workloads[0])
	c := newCorpus(5, spec.docs, spec.extraDocs())
	s := newOpStream(spec, c, 5)
	for _, stub := range []bool{false, true} {
		cat, err := catalog.Open(c.gen.Schema, catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := service.New(cat).Handler()
		if stub {
			h = dropOneID(h)
		}
		srv := httptest.NewServer(h)
		tgt := newTarget(srv.URL, 0, c)
		if _, err := tgt.setup(s); err != nil {
			t.Fatal(err)
		}
		w := runWindow(tgt, s, 300*time.Millisecond, 1)
		ver := tgt.verify(w.samples)
		tgt.close()
		srv.Close()
		if w.failed != 0 || ver.checked == 0 {
			t.Fatalf("stub=%v: %d failed requests, %d replies checked", stub, w.failed, ver.checked)
		}
		if got := ver.mismatched > 0; got != stub {
			t.Errorf("stub=%v: %d mismatches (%s)", stub, ver.mismatched, strings.Join(ver.messages, "; "))
		}
	}
}
