package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

// clients is the closed-loop client count: one per core of the 2-core
// machine, each blocking on its reply like a workflow engine or portal
// session does.
const clients = 2

// target is one deployment reachable over HTTP, with the generator's
// model of its contents: the ID the server returned for each document,
// and the visibility state the generator has driven it to.
type target struct {
	base   string
	http   *http.Client
	shards int
	c      *corpus

	mu    sync.Mutex
	idOf  []int64       // document index -> server ID (0: not ingested)
	docOf map[int64]int // server ID -> document index
	// writeLog lists completed writes in completion order; a read sample
	// names the prefix of it that was in effect.
	writeLog []writeRec
	started  int // writes started
	// toggling counts in-flight publish toggles per document; a document
	// toggled by two overlapping writes has an order only the server
	// knows, so verification ignores it from then on.
	toggling  map[int]int
	uncertain map[int]bool
}

type writeRec struct {
	kind    opKind
	doc     int
	id      int64
	publish bool
}

func newTarget(base string, shards int, c *corpus) *target {
	return &target{
		base: base,
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
				MaxConnsPerHost:     clients,
				DisableCompression:  true,
			},
			Timeout: 120 * time.Second,
		},
		shards:    shards,
		c:         c,
		idOf:      make([]int64, c.total()),
		docOf:     map[int64]int{},
		toggling:  map[int]int{},
		uncertain: map[int]bool{},
	}
}

func (t *target) close() { t.http.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (t *target) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// request renders op o as the HTTP request the server sees.
func (t *target) request(o *op) (method, path string, body []byte) {
	fan := ""
	if o.fanout {
		fan = "fanout=1&"
	}
	switch o.kind {
	case opQuery:
		return "POST", "/query?" + fan, o.body
	case opSearch:
		return "POST", fmt.Sprintf("/search?%soffset=%d&limit=%d", fan, o.offset, searchLimit), o.body
	case opRanked:
		return "POST", "/search?" + fan, o.body
	case opFetch:
		return "GET", fmt.Sprintf("/fetch?id=%d", t.id(o.doc)), nil
	case opIngest:
		return "POST", "/ingest?owner=" + t.c.owners[o.doc], []byte(t.c.body(o.doc))
	default:
		verb := "unpublish"
		if o.publish {
			verb = "publish"
		}
		return "POST", fmt.Sprintf("/objects/%d/%s", t.id(o.doc), verb), nil
	}
}

func (t *target) id(doc int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idOf[doc]
}

// reply is the outcome of one op.
type reply struct {
	status int
	body   []byte
	err    error
	lat    time.Duration
	// stateAt is the number of completed writes whose effects the reply
	// must reflect; -1 when a write overlapped it and the state is
	// ambiguous.
	stateAt int
}

func (r *reply) failed() bool { return r.err != nil || !ok2xx(r.status) }

// exec runs op o and updates the model for writes.
func (t *target) exec(o *op) reply {
	method, path, body := t.request(o)
	write := o.kind == opIngest || o.kind == opPublish
	t.mu.Lock()
	startStarted, startDone := t.started, len(t.writeLog)
	if write {
		t.started++
		if o.kind == opPublish {
			t.toggling[o.doc]++
			if t.toggling[o.doc] > 1 {
				t.uncertain[o.doc] = true
			}
		}
	}
	t.mu.Unlock()

	t0 := time.Now()
	status, data, err := t.do(method, path, body)
	r := reply{status: status, body: data, err: err, lat: time.Since(t0), stateAt: -1}

	t.mu.Lock()
	defer t.mu.Unlock()
	if write {
		if o.kind == opPublish {
			t.toggling[o.doc]--
		}
		if r.failed() {
			// The server state is unknown from here on for this document.
			t.uncertain[o.doc] = true
			return r
		}
		rec := writeRec{kind: o.kind, doc: o.doc, publish: o.publish}
		if o.kind == opIngest {
			var v struct {
				ID int64 `json:"id"`
			}
			if err := json.Unmarshal(data, &v); err != nil || v.ID <= 0 {
				r.err = fmt.Errorf("ingest: bad reply %q", data)
				return r
			}
			rec.id = v.ID
		}
		t.applyLocked(rec)
		return r
	}
	if startStarted == startDone && t.started == startStarted {
		r.stateAt = startDone
	}
	return r
}

// apply records a completed write in the model.
func (t *target) apply(rec writeRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started++
	t.applyLocked(rec)
}

func (t *target) applyLocked(rec writeRec) {
	if rec.kind == opIngest {
		t.idOf[rec.doc] = rec.id
		t.docOf[rec.id] = rec.doc
	}
	t.writeLog = append(t.writeLog, rec)
}

// ownerShards maps each owner to the shard holding its documents: the
// shard part of any global ID the server returned for them.
func (t *target) ownerShards() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for d, id := range t.idOf {
		if id != 0 && t.shards > 0 {
			out[t.c.owners[d]] = int(id % int64(t.shards))
		}
	}
	return out
}

// setupTimes records the phases of one deployment set-up.
type setupTimes struct {
	ingestLat []time.Duration
	xmlBytes  int64
}

// setup registers the corpus definitions over /define/*, ingests and
// publishes the preload with the closed-loop clients, and warms the
// deployment: the first ranked query builds the text index and the hot
// set is touched once.
func (t *target) setup(s *opStream) (setupTimes, error) {
	var st setupTimes
	defs, err := t.c.definitions()
	if err != nil {
		return st, err
	}
	attrIDs := map[string]int64{}
	for _, d := range defs {
		if d.Kind != "attribute" {
			continue
		}
		req, _ := json.Marshal(map[string]any{"name": d.Name, "source": d.Source, "parent_id": attrIDs[d.Parent], "owner": d.Owner})
		var v struct {
			AttrID int64 `json:"attr_id"`
		}
		if err := t.postJSON("/define/attr", req, &v); err != nil {
			return st, err
		}
		attrIDs[d.Name] = v.AttrID
	}
	for _, d := range defs {
		if d.Kind != "element" {
			continue
		}
		req, _ := json.Marshal(map[string]any{"name": d.Name, "source": d.Source, "attr_id": attrIDs[d.Parent], "type": d.Type, "owner": d.Owner})
		if err := t.postJSON("/define/elem", req, nil); err != nil {
			return st, err
		}
	}

	lats := make([][]time.Duration, clients)
	err = parallel(t.c.preload, func(w, i int) error {
		r := t.exec(&op{kind: opIngest, doc: i})
		if r.failed() {
			return fmt.Errorf("setup ingest of document %d: status %d: %v %s", i, r.status, r.err, r.body)
		}
		lats[w] = append(lats[w], r.lat)
		return nil
	})
	if err != nil {
		return st, err
	}
	for _, l := range lats {
		st.ingestLat = append(st.ingestLat, l...)
	}
	for i := 0; i < t.c.preload; i++ {
		st.xmlBytes += int64(len(t.c.body(i)))
	}
	var pubs []int
	for i, p := range t.c.published {
		if p {
			pubs = append(pubs, i)
		}
	}
	err = parallel(len(pubs), func(_, i int) error {
		r := t.exec(&op{kind: opPublish, doc: pubs[i], publish: true})
		if r.failed() {
			return fmt.Errorf("setup publish: status %d: %v %s", r.status, r.err, r.body)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	return st, t.warm(s)
}

// warm runs the warm-up ops.
func (t *target) warm(s *opStream) error {
	for _, o := range s.warmOps() {
		if r := t.exec(o); r.failed() {
			return fmt.Errorf("warm-up %s: status %d: %v %s", o.kind, r.status, r.err, r.body)
		}
	}
	return nil
}

// warmOps builds the text index with one ranked query and, on pooled
// workloads, touches the Zipf head of the query pool and the documents.
func (s *opStream) warmOps() []*op {
	ops := []*op{{kind: opRanked, q: rankWarmQuery, body: mustQueryJSON(rankWarmQuery)}}
	if !s.spec.fresh {
		for i := 0; i < 64; i++ {
			ops = append(ops,
				&op{kind: opQuery, q: s.pool[i], body: s.poolBodies[i]},
				&op{kind: opFetch, doc: s.docPerm[i]})
		}
	}
	return ops
}

var rankWarmQuery = &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"radar"}, K: catalog.DefaultRankK}}

func (t *target) postJSON(path string, body []byte, out any) error {
	status, data, err := t.do("POST", path, body)
	if err != nil {
		return err
	}
	if !ok2xx(status) {
		return fmt.Errorf("POST %s: status %d: %s", path, status, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// parallel runs fn(worker, i) for i in [0, n) on the closed-loop client
// count, stopping at the first error.
func parallel(n int, fn func(w, i int) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// metrics reads the server's metrics registry.
func (t *target) metrics() (registry, error) {
	status, data, err := t.do("GET", "/metrics?format=json", nil)
	if err != nil {
		return registry{}, err
	}
	if status != http.StatusOK {
		return registry{}, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseRegistry(data)
}
