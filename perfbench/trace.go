package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/service"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/textindex"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// traceTail is how many new documents the traced passes of a read-only
// workload ingest after the stream, so the ingest-side layers are timed
// on every workload.
const traceTail = 200

// The traced run replays one workload's op stream once per layer
// boundary, each pass from freshly set-up in-process state built the
// same way, so every pass sees the same epochs and cache states:
//
//	http    the service handlers behind a loopback listener, one client
//	cluster shard.Cluster calls (sharded workloads only)
//	catalog catalog.Catalog calls, one child span per shard
//	leaf    the catalog calls again, plus xmldoc.ParseString,
//	        core.Shredder.Shred and Catalog.TextStats around them, and
//	        registry counts per op
//
// A layer's self time is its span minus the next inner span of the same
// op. Spans stay in memory until the passes end.
type passLevel int

const (
	passHTTP passLevel = iota
	passCluster
	passCatalog
	passLeaf
)

var passNames = []string{"http", "cluster", "catalog", "leaf"}

type traceResult struct {
	ops      int
	failed   int
	values   map[string]float64
	httpLats [numKinds][]time.Duration
	detail   map[string]any
}

type tracer struct {
	cfg    runConfig
	c      *corpus
	s      *opStream
	replay []*op
	spans  [4][]time.Duration // per pass, per replayed op
	// answers are the HTTP pass's results, which the oracle verified;
	// the inner passes must reproduce them.
	answers []string
	res     *traceResult
	samples map[string][]float64 // per-op observations by metric name
	counts  map[string]float64   // registry counts summed over the leaf pass
	perKind [numKinds]int        // ops per kind in the replay
	results float64              // structural query results in the replay
	spread  []float64            // slowest over median shard, per fan-out op
	msgs    []string
}

func traced(cfg runConfig, c *corpus, s *opStream) (*traceResult, error) {
	tr := &tracer{
		cfg: cfg, c: c, s: s,
		res:     &traceResult{values: map[string]float64{}, detail: map[string]any{}},
		samples: map[string][]float64{},
		counts:  map[string]float64{},
	}
	for i := 0; i < cfg.spec.tracedOps; i++ {
		tr.replay = append(tr.replay, s.at(i))
	}
	if cfg.spec.readOnly() {
		for j := 0; j < traceTail; j++ {
			tr.replay = append(tr.replay, &op{kind: opIngest, doc: c.preload + j})
		}
	}
	for _, o := range tr.replay {
		tr.perKind[o.kind]++
	}
	levels := []passLevel{passHTTP, passCatalog, passLeaf}
	if cfg.spec.shards > 0 {
		levels = []passLevel{passHTTP, passCluster, passCatalog, passLeaf}
	}
	for _, lvl := range levels {
		t0 := time.Now()
		var err error
		if lvl == passHTTP {
			err = tr.httpPass()
		} else {
			err = tr.directPass(lvl)
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", passNames[lvl], err)
		}
		tr.res.ops += len(tr.replay)
		fmt.Fprintf(cfg.verbose, "perfbench: traced %s pass: %d ops in %.2fs\n", passNames[lvl], len(tr.replay), time.Since(t0).Seconds())
	}
	tr.derive()
	tr.res.detail["replayed_ops"] = len(tr.replay)
	tr.res.detail["errors"] = tr.msgs
	return tr.res, nil
}

func (tr *tracer) fail(format string, args ...any) {
	tr.res.failed++
	if len(tr.msgs) < 5 {
		tr.msgs = append(tr.msgs, fmt.Sprintf(format, args...))
	}
}

func (tr *tracer) observe(name string, v float64) { tr.samples[name] = append(tr.samples[name], v) }

// deployment is the in-process twin of a workload's mdserver: the same
// catalogs behind the same handlers, loaded from the same corpus in
// document order, with the model of what it holds.
type deployment struct {
	spec  workloadSpec
	reg   *obs.Registry
	cat   *catalog.Catalog   // single node
	cl    *shard.Cluster     // sharded
	cats  []*catalog.Catalog // the cluster's shard catalogs
	model *target
	dir   string
}

func newDeployment(spec workloadSpec, c *corpus, dir string) (*deployment, error) {
	d := &deployment{spec: spec, reg: obs.NewRegistry(), dir: dir, model: newTarget("", spec.shards, c)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := catalog.Options{Metrics: d.reg}
	dopts := catalog.DurabilityOptions{CheckpointEvery: 1024}
	var err error
	switch {
	case spec.shards > 0:
		d.cl, err = shard.Open(shard.Options{Schema: c.gen.Schema, Root: dir, Shards: spec.shards, Catalog: opts, Durability: dopts})
		if err == nil {
			err = d.cl.ForEachShard(func(_ int, sc *catalog.Catalog) error {
				d.cats = append(d.cats, sc)
				return c.gen.RegisterDefinitions(sc)
			})
		}
	case spec.durable:
		dopts.WALPath = filepath.Join(dir, "catalog.wal")
		if d.cat, err = catalog.OpenDurable(c.gen.Schema, opts, dopts); err == nil {
			err = c.gen.RegisterDefinitions(d.cat)
		}
	default:
		if d.cat, err = catalog.Open(c.gen.Schema, opts); err == nil {
			err = c.gen.RegisterDefinitions(d.cat)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.preload; i++ {
		var id int64
		if d.cl != nil {
			id, err = d.cl.IngestXML(c.owners[i], c.body(i))
		} else {
			id, err = d.cat.IngestXML(c.owners[i], c.body(i))
		}
		if err != nil {
			return nil, err
		}
		d.model.apply(writeRec{kind: opIngest, doc: i, id: id})
	}
	for i, p := range c.published {
		if !p {
			continue
		}
		if d.cl != nil {
			err = d.cl.SetPublished(d.model.id(i), true)
		} else {
			err = d.cat.SetPublished(d.model.id(i), true)
		}
		if err != nil {
			return nil, err
		}
		d.model.apply(writeRec{kind: opPublish, doc: i, publish: true})
	}
	return d, nil
}

func (d *deployment) handler() http.Handler {
	if d.cl != nil {
		return service.NewSharded(d.cl).Handler()
	}
	return service.New(d.cat).Handler()
}

func (d *deployment) close() error {
	var err error
	if d.cl != nil {
		err = d.cl.Close()
	} else if d.spec.durable {
		err = d.cat.Close()
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// httpPass serves the deployment's handlers on loopback, replays the
// stream with one client under a CPU profile, and verifies every reply.
func (tr *tracer) httpPass() error {
	d, err := newDeployment(tr.cfg.spec, tr.c, filepath.Join(tr.cfg.runDir, "trace-http"))
	if err != nil {
		return err
	}
	defer d.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: d.handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	t := d.model
	t.base = "http://" + ln.Addr().String()
	defer t.close()
	if err := t.warm(tr.s); err != nil {
		return err
	}

	runtime.GC() // every pass starts its replay from the same heap state
	profPath := filepath.Join(tr.cfg.runDir, "cpu-"+tr.cfg.spec.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	spans := make([]time.Duration, len(tr.replay))
	tr.answers = make([]string, len(tr.replay))
	var samples []sample
	respKB := map[opKind][]float64{}
	for i, o := range tr.replay {
		r := t.exec(o)
		spans[i] = r.lat
		if r.failed() {
			tr.fail("http op %d %s: status %d: %v %.200s", i, o.kind, r.status, r.err, r.body)
			continue
		}
		tr.res.httpLats[o.kind] = append(tr.res.httpLats[o.kind], r.lat)
		respKB[o.kind] = append(respKB[o.kind], float64(len(r.body))/1024)
		tr.answers[i] = httpAnswer(o, r.body)
		if o.kind != opIngest && o.kind != opPublish {
			samples = append(samples, sample{op: o, rep: r})
		}
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}
	tr.spans[passHTTP] = spans
	for _, k := range []opKind{opSearch, opRanked, opFetch} {
		tr.res.values["service.resp_kb."+k.String()] = medianOf(respKB[k])
	}
	ver := t.verify(samples)
	tr.res.failed += ver.mismatched
	tr.msgs = append(tr.msgs, ver.messages...)
	tr.res.detail["verified"] = map[string]int{"checked": ver.checked, "mismatched": ver.mismatched}
	tr.res.detail["cpu_profile"] = profPath
	tr.res.detail["profile_top"] = profileTop(profPath, tr.cfg)
	return nil
}

// profileTop prints the profile's top functions by cumulative share.
func profileTop(path string, cfg runConfig) []string {
	bin, err := os.Executable()
	if err != nil {
		return nil
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=80", bin, path).Output()
	if err != nil {
		return []string{"go tool pprof: " + err.Error()}
	}
	// The process hosts both the handlers and the client; keep the
	// program's own functions.
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.Contains(l, "hybridcat/internal/") && len(lines) < 15 {
			lines = append(lines, strings.Join(strings.Fields(l), " "))
		}
	}
	fmt.Fprintf(cfg.verbose, "perfbench: %s CPU profile, program functions by cumulative share (flat flat%% sum%% cum cum%%):\n  %s\n",
		cfg.spec.name, strings.Join(lines, "\n  "))
	return lines
}

func httpAnswer(o *op, body []byte) string {
	switch o.kind {
	case opQuery:
		var v struct {
			IDs []int64 `json:"ids"`
		}
		_ = json.Unmarshal(body, &v)
		return idsAnswer(len(v.IDs), v.IDs)
	case opSearch, opRanked:
		var v searchReply
		_ = json.Unmarshal(body, &v)
		ids := make([]int64, len(v.Results))
		for i, r := range v.Results {
			ids[i] = r.ID
		}
		return idsAnswer(v.Total, ids)
	case opIngest:
		var v struct {
			ID int64 `json:"id"`
		}
		_ = json.Unmarshal(body, &v)
		return idsAnswer(1, []int64{v.ID})
	}
	return ""
}

func idsAnswer(total int, ids []int64) string { return fmt.Sprint(total, ids) }

// directPass replays the stream through Go calls at one layer.
func (tr *tracer) directPass(lvl passLevel) error {
	d, err := newDeployment(tr.cfg.spec, tr.c, filepath.Join(tr.cfg.runDir, "trace-"+passNames[lvl]))
	if err != nil {
		return err
	}
	defer d.close()
	x := &directExec{tr: tr, d: d, lvl: lvl}
	if lvl == passLeaf {
		x.shredder = map[*catalog.Catalog]*core.Shredder{}
	}
	x.warming = true
	for _, o := range tr.s.warmOps() {
		if _, _, err := x.exec(o); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.kind, err)
		}
	}
	x.warming = false
	runtime.GC() // every pass starts its replay from the same heap state
	spans := make([]time.Duration, len(tr.replay))
	for i, o := range tr.replay {
		var before map[string]float64
		if lvl == passLeaf {
			before = d.reg.Snapshot()
		}
		span, answer, err := x.exec(o)
		if lvl == passLeaf {
			tr.count(o, obs.DiffSnapshots(before, d.reg.Snapshot()))
		}
		spans[i] = span
		if err != nil {
			tr.fail("%s op %d %s: %v", passNames[lvl], i, o.kind, err)
		} else if answer != tr.answers[i] {
			tr.fail("%s op %d %s: answer %.100s differs from the HTTP pass's %.100s", passNames[lvl], i, o.kind, answer, tr.answers[i])
		}
	}
	tr.spans[lvl] = spans
	return nil
}

// count attributes one leaf-pass op's registry activity to its kind.
func (tr *tracer) count(o *op, diff map[string]float64) {
	for id, v := range diff {
		for _, fam := range []string{"relstore_row_reads_total", "relstore_index_lookups_total",
			"relstore_row_writes_total", "query_bitmap_containers_total", "query_criterion_rows_sum"} {
			if id == fam || strings.HasPrefix(id, fam+"{") {
				tr.counts[o.kind.String()+"."+fam] += v
			}
		}
	}
}

// directExec runs ops through Go calls at one pass level.
type directExec struct {
	tr       *tracer
	d        *deployment
	lvl      passLevel
	warming  bool
	shredder map[*catalog.Catalog]*core.Shredder // leaf pass only
}

// observe keeps a per-op observation from the pass that owns it: catalog
// spans from the catalog pass, leaf timings from the leaf pass. Warm-up
// ops count only for the text index build they trigger.
func (x *directExec) observe(name string, v float64) {
	if x.warming && name != "textindex.build_ms" {
		return
	}
	owner := passLeaf
	if strings.HasPrefix(name, "catalog.") && name != "catalog.ingest_rest_us" {
		owner = passCatalog
	}
	if x.lvl == owner {
		x.tr.observe(name, v)
	}
}

func (x *directExec) exec(o *op) (time.Duration, string, error) {
	if x.lvl == passCluster {
		return x.cluster(o)
	}
	if x.d.cl == nil {
		return x.single(o)
	}
	return x.sharded(o)
}

func (x *directExec) leaf() bool { return x.lvl == passLeaf }

// noteResults counts a leaf-pass structural query's results, the
// denominator of catalog.rows_examined_per_result.
func (x *directExec) noteResults(n int) {
	if x.leaf() && !x.warming {
		x.tr.results += float64(n)
	}
}

// page is the slice of a full result list that /search?offset=&limit=
// returns.
func page[T any](xs []T, offset int) []T {
	return xs[min(offset, len(xs)):min(offset+searchLimit, len(xs))]
}

func respIDs(resp []catalog.Response) []int64 {
	ids := make([]int64, len(resp))
	for i, r := range resp {
		ids[i] = r.ObjectID
	}
	return ids
}

func rankedIDs(resp []catalog.RankedResponse) []int64 {
	ids := make([]int64, len(resp))
	for i, r := range resp {
		ids[i] = r.ObjectID
	}
	return ids
}

// cluster runs one op through the shard router.
func (x *directExec) cluster(o *op) (time.Duration, string, error) {
	cl, m := x.d.cl, x.d.model
	t0 := time.Now()
	switch o.kind {
	case opQuery:
		eval := cl.Evaluate
		if o.fanout {
			eval = cl.EvaluateAll
		}
		ids, err := eval(o.q)
		return time.Since(t0), idsAnswer(len(ids), ids), err
	case opSearch:
		var resp []catalog.Response
		var total int
		var err error
		if o.fanout {
			if resp, err = cl.SearchAll(o.q); err == nil {
				total = len(resp)
				resp = page(resp, o.offset)
			}
		} else {
			resp, total, err = cl.SearchPage(o.q, o.offset, searchLimit)
		}
		return time.Since(t0), idsAnswer(total, respIDs(resp)), err
	case opRanked:
		resp, err := cl.SearchRanked(o.q, o.fanout)
		return time.Since(t0), idsAnswer(len(resp), rankedIDs(resp)), err
	case opFetch:
		_, err := cl.FetchDocument(m.id(o.doc))
		return time.Since(t0), "", err
	case opIngest:
		id, err := cl.IngestXML(x.tr.c.owners[o.doc], x.tr.c.body(o.doc))
		span := time.Since(t0)
		if err == nil {
			m.apply(writeRec{kind: opIngest, doc: o.doc, id: id})
		}
		return span, idsAnswer(1, []int64{id}), err
	default:
		err := cl.SetPublished(m.id(o.doc), o.publish)
		span := time.Since(t0)
		if err == nil {
			m.apply(writeRec{kind: opPublish, doc: o.doc, publish: o.publish})
		}
		return span, "", err
	}
}

// single runs one op through the single-node catalog, as the service
// handler does.
func (x *directExec) single(o *op) (time.Duration, string, error) {
	cat, m := x.d.cat, x.d.model
	switch o.kind {
	case opQuery:
		t0 := time.Now()
		ids, err := cat.Evaluate(o.q)
		span := time.Since(t0)
		x.observe("catalog.evaluate_us", us(span))
		x.noteResults(len(ids))
		return span, idsAnswer(len(ids), ids), err
	case opSearch:
		t0 := time.Now()
		ids, err := cat.Evaluate(o.q)
		eval := time.Since(t0)
		if err != nil {
			return eval, "", err
		}
		t1 := time.Now()
		resp, err := cat.BuildResponse(page(ids, o.offset))
		build := time.Since(t1)
		x.observe("catalog.evaluate_us", us(eval))
		x.observe("catalog.build_response_us", us(build))
		return eval + build, idsAnswer(len(ids), respIDs(resp)), err
	case opRanked:
		if x.leaf() {
			x.leafRanked(func() error { _, err := cat.TextStats(o.q.Rank.Terms); return err },
				func() error { _, err := cat.EvaluateRanked(o.q); return err })
		}
		t0 := time.Now()
		resp, err := cat.SearchRanked(context.Background(), o.q)
		span := time.Since(t0)
		x.observe("catalog.search_ranked_us", us(span))
		return span, idsAnswer(len(resp), rankedIDs(resp)), err
	case opFetch:
		t0 := time.Now()
		_, err := cat.FetchDocument(m.id(o.doc))
		span := time.Since(t0)
		x.observe("catalog.fetch_us", us(span))
		return span, "", err
	case opIngest:
		id, span, err := x.ingest(cat, o)
		if err == nil {
			m.apply(writeRec{kind: opIngest, doc: o.doc, id: id})
		}
		return span, idsAnswer(1, []int64{id}), err
	default:
		t0 := time.Now()
		err := cat.SetPublished(m.id(o.doc), o.publish)
		span := time.Since(t0)
		if err == nil {
			m.apply(writeRec{kind: opPublish, doc: o.doc, publish: o.publish})
		}
		return span, "", err
	}
}

// ingest times one catalog ingest; the leaf pass first times the parse
// and shred it repeats, on a shredder of its own.
func (x *directExec) ingest(cat *catalog.Catalog, o *op) (int64, time.Duration, error) {
	owner, body := x.tr.c.owners[o.doc], x.tr.c.body(o.doc)
	var parse, shred time.Duration
	if x.leaf() {
		t0 := time.Now()
		doc, err := xmldoc.ParseString(body)
		parse = time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		sh := x.shredder[cat]
		if sh == nil {
			sh = core.NewShredder(cat.Schema, cat.Reg)
			x.shredder[cat] = sh
		}
		t1 := time.Now()
		_, err = sh.Shred(doc, core.Options{Owner: owner})
		shred = time.Since(t1)
		if err != nil {
			return 0, 0, err
		}
		x.observe("xmldoc.parse_us_per_doc", us(parse))
		x.observe("core.shred_us_per_doc", us(shred))
	}
	t0 := time.Now()
	id, err := cat.IngestXML(owner, body)
	span := time.Since(t0)
	x.observe("catalog.ingest_us", us(span))
	if x.leaf() {
		x.observe("catalog.ingest_rest_us", us(span-parse-shred))
	}
	return id, span, err
}

// leafRanked times the text statistics call, which rebuilds the index
// when the epoch moved, then the top-k at the now unchanged epoch.
func (x *directExec) leafRanked(stats, topk func() error) {
	builds := x.d.reg.Counter("textindex_builds_total").Value()
	t0 := time.Now()
	if stats() == nil && x.d.reg.Counter("textindex_builds_total").Value() != builds {
		x.observe("textindex.build_ms", ms(time.Since(t0)))
	}
	t1 := time.Now()
	if topk() == nil {
		x.observe("textindex.topk_us", us(time.Since(t1)))
	}
}

// shardSpans runs fn on each listed shard concurrently, as the router
// scatters, and returns each shard's span.
func shardSpans(idx []int, fn func(i int) error) ([]time.Duration, error) {
	spans := make([]time.Duration, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for j, i := range idx {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[j] = fn(i)
			spans[j] = time.Since(t0)
		}(j, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return spans, err
		}
	}
	return spans, nil
}

func slowest(spans []time.Duration) time.Duration { return slices.Max(spans) }

// evaluate runs the structural part of a sharded read on the shards the
// router would touch: the owner's shard for a routed owner query, every
// shard otherwise. It returns global IDs ascending and the catalog span
// (the slowest shard).
func (x *directExec) evaluate(o *op) ([]int64, time.Duration, error) {
	n := len(x.d.cats)
	if o.q.Owner != "" && !o.fanout {
		i := x.d.cl.ShardFor(o.q.Owner)
		t0 := time.Now()
		locals, err := x.d.cats[i].Evaluate(o.q)
		span := time.Since(t0)
		gids := make([]int64, len(locals))
		for j, l := range locals {
			gids[j] = l*int64(n) + int64(i)
		}
		return gids, span, err
	}
	per := make([][]int64, n)
	spans, err := shardSpans(allShards(n), func(i int) error {
		var err error
		per[i], err = x.d.cats[i].Evaluate(o.q)
		return err
	})
	x.noteSpread(spans)
	var gids []int64
	for i, locals := range per {
		for _, l := range locals {
			gids = append(gids, l*int64(n)+int64(i))
		}
	}
	slices.Sort(gids)
	return gids, slowest(spans), err
}

func allShards(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func (x *directExec) noteSpread(spans []time.Duration) {
	s := slices.Clone(spans)
	slices.Sort(s)
	if med := s[len(s)/2]; med > 0 && x.lvl == passCatalog && !x.warming {
		x.tr.spread = append(x.tr.spread, float64(s[len(s)-1])/float64(med))
	}
}

// build builds response documents for global IDs on their shards
// concurrently, keeping the IDs' order.
func (x *directExec) build(gids []int64) ([]int64, time.Duration, error) {
	n := int64(len(x.d.cats))
	byShard := map[int][]int64{}
	var idx []int
	for _, g := range gids {
		i := int(g % n)
		if byShard[i] == nil {
			idx = append(idx, i)
		}
		byShard[i] = append(byShard[i], g/n)
	}
	if len(idx) == 0 {
		return nil, 0, nil
	}
	built := make([]map[int64]bool, n)
	spans, err := shardSpans(idx, func(i int) error {
		resp, err := x.d.cats[i].BuildResponse(byShard[i])
		built[i] = map[int64]bool{}
		for _, r := range resp {
			built[i][r.ObjectID] = true
		}
		return err
	})
	var out []int64
	for _, g := range gids {
		if built[g%n][g/n] {
			out = append(out, g)
		}
	}
	return out, slowest(spans), err
}

// sharded runs one op on the cluster's shard catalogs directly, the way
// the router would, so the catalog span excludes the router.
func (x *directExec) sharded(o *op) (time.Duration, string, error) {
	n := int64(len(x.d.cats))
	m := x.d.model
	switch o.kind {
	case opQuery:
		ids, span, err := x.evaluate(o)
		x.observe("catalog.evaluate_us", us(span))
		x.noteResults(len(ids))
		return span, idsAnswer(len(ids), ids), err
	case opSearch:
		ids, eval, err := x.evaluate(o)
		if err != nil {
			return eval, "", err
		}
		got, build, err := x.build(page(ids, o.offset))
		x.observe("catalog.evaluate_us", us(eval))
		x.observe("catalog.build_response_us", us(build))
		return eval + build, idsAnswer(len(ids), got), err
	case opRanked:
		return x.shardedRanked(o)
	case opFetch:
		g := m.id(o.doc)
		t0 := time.Now()
		_, err := x.d.cats[g%n].FetchDocument(g / n)
		span := time.Since(t0)
		x.observe("catalog.fetch_us", us(span))
		return span, "", err
	case opIngest:
		i := x.d.cl.ShardFor(x.tr.c.owners[o.doc])
		local, span, err := x.ingest(x.d.cats[i], o)
		gid := local*n + int64(i)
		if err == nil {
			m.apply(writeRec{kind: opIngest, doc: o.doc, id: gid})
		}
		return span, idsAnswer(1, []int64{gid}), err
	default:
		g := m.id(o.doc)
		t0 := time.Now()
		err := x.d.cats[g%n].SetPublished(g/n, o.publish)
		span := time.Since(t0)
		if err == nil {
			m.apply(writeRec{kind: opPublish, doc: o.doc, publish: o.publish})
		}
		return span, "", err
	}
}

// shardedRanked is the router's two-phase ranked scatter on the shard
// catalogs: per-shard text statistics, summed; per-shard top-k under the
// global statistics; a score-ordered merge; and the response build. The
// generated ranked queries carry no owner, so the router always
// scatters them.
func (x *directExec) shardedRanked(o *op) (time.Duration, string, error) {
	n := len(x.d.cats)
	stats := make([]textindex.Stats, n)
	builds := x.d.reg.Counter("textindex_builds_total").Value()
	statSpans, err := shardSpans(allShards(n), func(i int) error {
		var err error
		stats[i], err = x.d.cats[i].TextStats(o.q.Rank.Terms)
		return err
	})
	if err != nil {
		return 0, "", err
	}
	if x.leaf() && x.d.reg.Counter("textindex_builds_total").Value() != builds {
		x.observe("textindex.build_ms", ms(slowest(statSpans)))
	}
	var global textindex.Stats
	for _, st := range stats {
		global.Merge(st)
	}
	per := make([][]catalog.ScoredID, n)
	topSpans, err := shardSpans(allShards(n), func(i int) error {
		var err error
		per[i], err = x.d.cats[i].EvaluateRankedStats(context.Background(), o.q, &global)
		return err
	})
	if err != nil {
		return 0, "", err
	}
	x.noteSpread(topSpans)
	if x.leaf() {
		x.observe("textindex.topk_us", us(slowest(topSpans)))
	}
	var merged []catalog.ScoredID
	for i, s := range per {
		for _, sc := range s {
			merged = append(merged, catalog.ScoredID{ID: sc.ID*int64(n) + int64(i), Score: sc.Score})
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Score != merged[b].Score {
			return merged[a].Score > merged[b].Score
		}
		return merged[a].ID < merged[b].ID
	})
	k := o.q.Rank.K
	if k <= 0 {
		k = catalog.DefaultRankK
	}
	if len(merged) > k {
		merged = merged[:k]
	}
	gids := make([]int64, len(merged))
	for i, sc := range merged {
		gids[i] = sc.ID
	}
	got, build, err := x.build(gids)
	span := slowest(statSpans) + slowest(topSpans) + build
	x.observe("catalog.search_ranked_us", us(span))
	return span, idsAnswer(len(got), got), err
}

// derive turns the passes' spans and counts into per-layer values.
func (tr *tracer) derive() {
	v := tr.res.values
	http, inner := tr.spans[passHTTP], tr.spans[passCatalog]
	if tr.cfg.spec.shards > 0 {
		inner = tr.spans[passCluster]
	}
	self := map[opKind][]float64{}
	router := map[opKind][]float64{}
	for i, o := range tr.replay {
		self[o.kind] = append(self[o.kind], us(http[i]-inner[i]))
		if tr.cfg.spec.shards > 0 {
			router[o.kind] = append(router[o.kind], us(tr.spans[passCluster][i]-tr.spans[passCatalog][i]))
		}
	}
	for _, k := range []opKind{opQuery, opSearch, opRanked, opFetch, opIngest} {
		v["service.self_us."+k.String()] = medianOf(self[k])
	}
	for _, k := range []opKind{opQuery, opSearch, opRanked} {
		v["shard.router_self_us."+k.String()] = medianOf(router[k])
	}
	v["shard.slowest_over_median"] = 1
	if len(tr.spread) > 0 {
		v["shard.slowest_over_median"] = medianOf(tr.spread)
	}
	for _, name := range []string{"catalog.evaluate_us", "catalog.build_response_us", "catalog.search_ranked_us",
		"catalog.fetch_us", "catalog.ingest_us", "catalog.ingest_rest_us", "textindex.build_ms",
		"textindex.topk_us", "xmldoc.parse_us_per_doc", "core.shred_us_per_doc"} {
		v[name] = medianOf(tr.samples[name])
	}
	per := func(kind opKind, fam string) float64 {
		return ratio(tr.counts[kind.String()+"."+fam], float64(tr.perKind[kind]))
	}
	v["relstore.row_reads_per_op.query"] = per(opQuery, "relstore_row_reads_total")
	v["relstore.row_reads_per_op.fetch"] = per(opFetch, "relstore_row_reads_total")
	v["relstore.index_lookups_per_query"] = per(opQuery, "relstore_index_lookups_total")
	v["bitset.containers_per_query"] = per(opQuery, "query_bitmap_containers_total")
	v["relstore.row_writes_per_ingest"] = per(opIngest, "relstore_row_writes_total")
	v["catalog.rows_examined_per_result"] = ratio(tr.counts["query.query_criterion_rows_sum"], tr.results)
	tr.res.detail["leaf_counts"] = tr.counts
}

// httpOverUntraced is the traced HTTP pass's p50 over the untraced
// window's, per read op kind, as the median of the four ratios.
func httpOverUntraced(m *measurement, tr *traceResult) float64 {
	var rs []float64
	for _, k := range []opKind{opQuery, opSearch, opRanked, opFetch} {
		if a, b := quantile(tr.httpLats[k], 0.5), quantile(m.win.lats[k], 0.5); a > 0 && b > 0 {
			rs = append(rs, float64(a)/float64(b))
		}
	}
	return medianOf(rs)
}
