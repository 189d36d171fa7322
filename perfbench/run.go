package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

type runConfig struct {
	spec    workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	server  string // mdserver binary
	runDir  string
	verbose io.Writer
}

// sampleEvery keeps every n-th read reply of the timed window for
// verification.
const sampleEvery = 31

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricDecl struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, as BENCHMARK.json
// declares them.
var endToEnd = []metricDecl{
	{"throughput_ops_s", "1/s"},
	{"query_p50_ms", "ms"}, {"query_p95_ms", "ms"},
	{"search_p50_ms", "ms"}, {"search_p95_ms", "ms"},
	{"ranked_p50_ms", "ms"}, {"ranked_p95_ms", "ms"},
	{"fetch_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// measurement is what the untraced part of a run observed of the
// mdserver subprocess.
type measurement struct {
	setups      []time.Duration
	setupIngest []time.Duration // /ingest latencies of every corpus load
	setupReg    registry        // registry activity of the measured set-up
	setupXML    int64           // XML bytes ingested by the measured set-up
	setupWrites int             // ingests and publishes of the measured set-up
	win         window
	winReg      registry // registry activity of the window
	winXML      int64    // XML bytes ingested in the window
	serverCPU   time.Duration
	genCPU      time.Duration
	rss         int64
	disk        int64
	ver         verification
}

func run(cfg runConfig) (*result, map[string]any, error) {
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, nil, err
	}
	spec := cfg.spec
	c := newCorpus(cfg.seed, spec.docs, spec.extraDocs())
	c.prepareBodies(c.total())
	s := newOpStream(spec, c, cfg.seed)
	m, err := measure(cfg, c, s)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Attempted: m.win.attempted,
		Failed:    m.win.failed + m.ver.mismatched,
		Metrics:   map[string]metricValue{},
	}
	detail := stamp(cfg)
	detail["window"] = map[string]any{
		"seconds":    m.win.elapsed.Seconds(),
		"latency_ms": latencySummary(m),
		"verified":   map[string]int{"checked": m.ver.checked, "skipped_overlapping_write": m.ver.skipped, "mismatched": m.ver.mismatched},
		"setup_s":    durationsS(m.setups),
		"errors":     append(m.win.errors, m.ver.messages...),
	}
	if cfg.trace {
		tr, err := traced(cfg, c, s)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += tr.ops
		res.Failed += tr.failed
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{finite(layerValue(d.name, m, tr)), d.unit}
		}
		detail["traced"] = tr.detail
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{finite(e2eValue(d.name, m)), d.unit}
		}
	}
	res.Correct = res.Failed == 0 && m.ver.checked > 0
	if res.Correct {
		// Keep the per-request logs; drop the catalog data.
		entries, _ := os.ReadDir(cfg.runDir)
		for _, e := range entries {
			if e.IsDir() {
				_ = os.RemoveAll(filepath.Join(cfg.runDir, e.Name()))
			}
		}
	}
	return res, detail, nil
}

// measure sets the deployment up spec.setups times (once when tracing),
// then runs the timed window against the last one.
func measure(cfg runConfig, c *corpus, s *opStream) (*measurement, error) {
	spec := cfg.spec
	setups := spec.setups
	if cfg.trace {
		setups = 1
	}
	m := &measurement{}
	var (
		srv *server
		tgt *target
	)
	defer func() {
		if srv != nil {
			_ = srv.stop() // on error paths; the success path stops it below
		}
	}()
	for k := 0; k < setups; k++ {
		if srv != nil {
			tgt.close()
			if err := srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(srv.dataDir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		srv, err = startServer(cfg.server, spec, filepath.Join(cfg.runDir, fmt.Sprintf("data-%d", k)),
			filepath.Join(cfg.runDir, fmt.Sprintf("server-%d.log", k)))
		if err != nil {
			return nil, err
		}
		tgt = newTarget(srv.base, spec.shards, c)
		before, err := tgt.metrics()
		if err != nil {
			return nil, err
		}
		st, err := tgt.setup(s)
		if err != nil {
			srv.stop()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0))
		after, err := tgt.metrics()
		if err != nil {
			return nil, err
		}
		m.setupIngest = append(m.setupIngest, st.ingestLat...)
		m.setupReg, m.setupXML, m.setupWrites = after.minus(before), st.xmlBytes, len(tgt.writeLog)
		fmt.Fprintf(cfg.verbose, "perfbench: %s set-up %d: %.2fs\n", spec.name, k, time.Since(t0).Seconds())
	}
	defer tgt.close()
	pid := srv.cmd.Process.Pid
	reg0, err := tgt.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	writes0 := len(tgt.writeLog)
	m.win = runWindow(tgt, s, cfg.window, sampleEvery)
	m.genCPU = selfCPU() - gen0
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	reg1, err := tgt.metrics()
	if err != nil {
		return nil, err
	}
	m.winReg = reg1.minus(reg0)
	if m.rss, err = peakRSS(pid); err != nil {
		return nil, err
	}
	for _, w := range tgt.writeLog[writes0:] {
		if w.kind == opIngest {
			m.winXML += int64(len(c.body(w.doc)))
		}
	}
	if spec.durable {
		m.disk = dirBytes(srv.dataDir)
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if err := writeLatencies(filepath.Join(cfg.runDir, "latencies.json"), m); err != nil {
		return nil, err
	}
	m.ver = tgt.verify(m.win.samples)
	fmt.Fprintf(cfg.verbose, "perfbench: %s window: %d ops in %.2fs, %d failed, %d replies verified\n",
		spec.name, m.win.attempted, m.win.elapsed.Seconds(), m.win.failed, m.ver.checked)
	return m, nil
}

func e2eValue(name string, m *measurement) float64 {
	if name == "throughput_ops_s" {
		return m.win.throughput()
	}
	if name == "setup_s" {
		return medianOf(durationsS(m.setups))
	}
	if name == "rss_mb" {
		return float64(m.rss) / (1 << 20)
	}
	kind, pct, _ := strings.Cut(strings.TrimSuffix(name, "_ms"), "_p")
	q := 0.5
	if pct == "95" {
		q = 0.95
	}
	return ms(quantile(m.latencies(kind), q))
}

// latencies returns the timed samples of one op kind. A read-only
// workload ingests only while it sets up, so its ingest latencies are
// those of the corpus loads.
func (m *measurement) latencies(kind string) []time.Duration {
	for k := opKind(0); k < numKinds; k++ {
		if k.String() != kind {
			continue
		}
		if k == opIngest && len(m.win.lats[k]) == 0 {
			return m.setupIngest
		}
		return m.win.lats[k]
	}
	return nil
}

// writeLatencies keeps the window's per-op latencies, in milliseconds by
// op kind, for inspection beside the server logs.
func writeLatencies(path string, m *measurement) error {
	out := map[string][]float64{}
	for k := opKind(0); k < numKinds; k++ {
		for _, d := range m.latencies(k.String()) {
			out[k.String()] = append(out[k.String()], ms(d))
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// latencySummary states each op kind's sample count and percentiles,
// gated or not; p99 only where the run has 1,000 samples of the kind.
func latencySummary(m *measurement) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for k := opKind(0); k < numKinds; k++ {
		lats := m.latencies(k.String())
		if len(lats) == 0 {
			continue
		}
		s := map[string]float64{"n": float64(len(lats)), "p50": ms(quantile(lats, 0.5)), "p95": ms(quantile(lats, 0.95))}
		if len(lats) >= 1000 {
			s["p99"] = ms(quantile(lats, 0.99))
		}
		out[k.String()] = s
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func finite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}

// stamp describes the environment and the workload's sizes.
func stamp(cfg runConfig) map[string]any {
	spec := cfg.spec
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	flush := "in-memory, no WAL"
	if spec.durable {
		flush = "fsync per commit, checkpoint every 1024 records (mdserver defaults)"
	}
	perShard := spec.docs
	if spec.shards > 0 {
		perShard = spec.docs / spec.shards
	}
	return map[string]any{
		"workload":       spec.name,
		"seed":           cfg.seed,
		"commit":         commit,
		"source_sha256":  sourceDigest(),
		"go":             runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"clients":        clients,
		"docs":           spec.docs,
		"shards":         max(spec.shards, 1),
		"docs_per_node":  perShard,
		"cache_capacity": fmt.Sprintf("%d entries per layer per node", catalog.DefaultCacheSize),
		"flush_policy":   flush,
		"run_dir":        cfg.runDir,
	}
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the code measured when no commit is known.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
