// Package service exposes a catalog as an HTTP/XML grid service: ingest
// schema-based metadata documents, register dynamic definitions, run
// attribute queries (JSON wire format), and fetch reconstructed XML.
// It stands in for the grid-service transport of the myLEAD server.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/shard"
)

// Server serves a catalog cluster over HTTP. A single node is a
// one-shard cluster (shard.Single), so every deployment — in-memory,
// durable, replica, N-shard — answers through this one handler set.
// Object and collection IDs on the wire are the cluster's global IDs,
// which equal the catalog's own IDs on a single node.
type Server struct {
	cl  *shard.Cluster
	ont *ontology.Ontology
	// Replica, when non-nil, marks this server a read replica: handlers
	// stamp X-Staleness-Seq and refuse reads once the replica lags past
	// MaxLag (see replication.go).
	Replica ReplicaSource
	// MaxLag is the replica staleness bound in log records; 0 disables
	// the lag check (responses still carry X-Staleness-Seq).
	MaxLag uint64
}

// New serves one catalog as a one-shard cluster.
func New(cat *catalog.Catalog) *Server { return NewSharded(shard.Single(cat)) }

// NewSharded serves a cluster.
func NewSharded(cl *shard.Cluster) *Server { return &Server{cl: cl} }

// Handler returns the service mux:
//
//	POST /ingest?owner=U        XML document body -> {"id": N}
//	POST /query                 query JSON -> {"ids": [...]}
//	POST /search                query JSON -> {"total", "results": [{"id", "xml"}]}
//	GET  /objects               -> [{"id","name","owner","created"}]
//	GET  /fetch?id=N            -> XML document
//	GET  /schema                -> text ordering table (Figure 2)
//	POST /define/attr           {"name","source","parent_id","owner"} -> definition (every shard)
//	POST /define/elem           {"name","source","attr_id","type","owner"} -> definition (every shard)
//	POST /objects/{id}/publish  and /unpublish
//	GET  /defs                  -> dynamic definitions (shard 0; all shards hold the same set)
//	GET  /metrics               -> metrics registry (Prometheus text; ?format=json)
//	GET  /healthz               -> readiness: ok | wedged | replica-lagging, plus "shards"
//	GET  /shardz                -> per-shard dir/objects/epoch/watermark
//	POST /rebalance?shard=N&dir=D  move shard N to directory D, live (409 on a single node)
//	GET  /wal/stream?from=N     -> replication stream (raw WAL frames)
//	GET  /wal/snapshot          -> replica bootstrap snapshot
//	GET  /debug/tracez          -> slowest query traces with stage timings
//	GET  /debug/cachez          -> read-cache counters + generations
//	GET  /debug/durabilityz     -> WAL/checkpoint/recovery counters
//
// plus the collection routes (collections.go). /query, /search and
// /collections/containing route an owner-scoped query to the owner's
// shard and fan a superuser query out; ?fanout=1 forces the fan-out
// read, which reproduces single-catalog visibility for owner queries
// over published data. The /wal and /debug endpoints serve one shard,
// ?shard=i (default 0; 400 when out of range).
//
// When the cluster has a metrics registry, every route is wrapped with
// per-endpoint request counters and latency histograms (see instrument
// in debug.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /ingest", s.handleIngest)
	s.route(mux, "POST /query", s.handleQuery)
	s.route(mux, "POST /search", s.handleSearch)
	s.route(mux, "GET /objects", s.handleObjects)
	s.route(mux, "GET /fetch", s.handleFetch)
	s.route(mux, "GET /schema", s.handleSchema)
	s.route(mux, "POST /define/attr", s.handleDefineAttr)
	s.route(mux, "POST /define/elem", s.handleDefineElem)
	s.route(mux, "POST /objects/{id}/publish", s.handlePublish(true))
	s.route(mux, "POST /objects/{id}/unpublish", s.handlePublish(false))
	s.route(mux, "GET /defs", s.handleDefs)
	s.route(mux, "POST /rebalance", s.handleRebalance)
	s.route(mux, "GET /wal/stream", s.handleWALStream)
	s.route(mux, "GET /wal/snapshot", s.handleWALSnapshot)
	// The operator endpoints sit outside the staleness middleware: a
	// lagging replica must still answer health checks and expose its
	// own state.
	s.handle(mux, "GET /metrics", s.handleMetrics)
	s.handle(mux, "GET /healthz", s.handleHealthz)
	s.handle(mux, "GET /shardz", s.handleShardz)
	s.handle(mux, "GET /debug/tracez", s.debugHandler(handleTracez))
	s.handle(mux, "GET /debug/cachez", s.debugHandler(func(c *catalog.Catalog, _ *http.Request) (any, error) {
		return c.CacheStats(), nil
	}))
	s.handle(mux, "GET /debug/durabilityz", s.debugHandler(func(c *catalog.Catalog, _ *http.Request) (any, error) {
		return c.DurabilityStats(), nil
	}))
	s.registerCollectionRoutes(mux)
	return mux
}

// shardParam resolves ?shard=i (default 0) to that shard's catalog for
// the per-shard endpoints, answering 400 when it is malformed or out of
// range.
func (s *Server) shardParam(w http.ResponseWriter, r *http.Request) (*catalog.Catalog, bool) {
	idx := 0
	if v := r.URL.Query().Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= s.cl.Shards() {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("service: ?shard=%s out of range [0, %d)", v, s.cl.Shards()))
			return nil, false
		}
		idx = n
	}
	return s.cl.Shard(idx), true
}

// handlePublish flips an object's published flag (§1 privacy: queries
// from other users only see published objects).
func (s *Server) handlePublish(published bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.cl.SetPublished(id, published); err != nil {
			writeErr(w, mutationStatus(err, http.StatusNotFound), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"published": published})
	}
}

func (s *Server) handleShardz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cl.Stats())
}

// handleRebalance moves one shard to a new directory while serving:
// POST /rebalance?shard=N&dir=path. Synchronous — the response reports
// the completed move (or its failure, which leaves the old shard
// serving, as 409; a single node has no routing table and always
// answers 409).
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("service: ?shard=N required"))
		return
	}
	dir := r.URL.Query().Get("dir")
	if dir == "" {
		writeErr(w, http.StatusBadRequest, errors.New("service: ?dir=path required"))
		return
	}
	if err := s.cl.Rebalance(idx, dir); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shard": idx, "dir": dir, "stats": s.cl.Stats()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Responses embed reconstructed XML documents; the default HTML-safe
	// escaping would mangle every angle bracket into its unicode-escape
	// form, so turn it off.
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Request-body ceilings: an ingest document may be large; queries and
// definition requests are small. Oversized bodies get 413 instead of a
// silent truncation.
const (
	maxIngestBody = 16 << 20
	maxJSONBody   = 1 << 20
)

// bodyStatus maps a body-read error to a status: hitting the
// MaxBytesReader ceiling is 413, everything else 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mutationStatus maps a failed catalog mutation to a status: a
// durability failure (the write-ahead record could not reach stable
// storage; state was rolled back) is a server-side 500; a mutation on a
// read-only replica is 503 so the client retries against the primary;
// anything else keeps the handler's validation status.
func mutationStatus(err error, fallback int) int {
	if errors.Is(err, catalog.ErrDurability) {
		return http.StatusInternalServerError
	}
	if errors.Is(err, catalog.ErrReadOnlyReplica) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, shard.ErrCrossShard) {
		return http.StatusUnprocessableEntity
	}
	return fallback
}

// queryStatus maps a failed read: an unknown definition or a rank
// clause with the text index off is the client's 400, anything else a
// server-side 500.
func queryStatus(err error) int {
	if errors.Is(err, catalog.ErrUnknownDefinition) || errors.Is(err, catalog.ErrTextIndexDisabled) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	id, err := s.cl.IngestXML(r.URL.Query().Get("owner"), string(body))
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

// decodeJSONBody decodes a size-capped JSON request body into v.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
}

func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (*catalog.Query, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err != nil {
		writeErr(w, bodyStatus(err), err)
		return nil, false
	}
	q, err := catalog.ParseQueryJSON(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return s.maybeExpand(r, q), true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	if q.Rank != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: ranked queries use POST /search"))
		return
	}
	ids, err := s.evaluate(r, q)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"ids": ids})
}

// handleDefs dumps the dynamic definitions in the DefJSON wire format.
// Definitions are broadcast to every shard, so shard 0 answers for all.
func (s *Server) handleDefs(w http.ResponseWriter, _ *http.Request) {
	data, err := s.cl.Shard(0).DumpDefinitionsJSON()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleSearch runs the query and returns reconstructed documents;
// ?offset and ?limit paginate, and the response carries the total
// match count. A structural query pages over the ascending ID order and
// builds documents for the page only; a query with a "rank" clause
// returns BM25 top-k results in score order, each carrying its score.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	offset, limit := queryInt(r, "offset", 0), queryInt(r, "limit", 0)
	if q.Rank != nil {
		s.handleSearchRanked(w, r, q, offset, limit)
		return
	}
	ids, err := s.evaluate(r, q)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	resp, err := s.cl.BuildResponse(catalog.Page(ids, offset, limit))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type result struct {
		ID  int64  `json:"id"`
		XML string `json:"xml"`
	}
	results := make([]result, 0, len(resp))
	for _, rr := range resp {
		results = append(results, result{ID: rr.ObjectID, XML: rr.XML})
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": len(ids), "results": results})
}

// handleSearchRanked is the ranked arm of POST /search: BM25 top-k
// composed with the query's structural criteria, results in descending
// score order with ?offset/?limit slicing the ranked list. A fan-out
// read scores every shard under globally merged statistics.
func (s *Server) handleSearchRanked(w http.ResponseWriter, r *http.Request, q *catalog.Query, offset, limit int) {
	if r.URL.Query().Get("collection") != "" {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("service: ranked search does not support ?collection"))
		return
	}
	resp, err := s.cl.SearchRankedContext(r.Context(), q, fanout(r))
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	type result struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
		XML   string  `json:"xml"`
	}
	page := catalog.Page(resp, offset, limit)
	results := make([]result, 0, len(page))
	for _, rr := range page {
		results = append(results, result{ID: rr.ObjectID, Score: rr.Score, XML: rr.XML})
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": len(resp), "results": results})
}

func queryInt(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return def
	}
	return n
}

func (s *Server) handleObjects(w http.ResponseWriter, _ *http.Request) {
	type obj struct {
		ID      int64  `json:"id"`
		Name    string `json:"name"`
		Owner   string `json:"owner"`
		Created string `json:"created"`
	}
	objs := s.cl.Objects()
	out := make([]obj, 0, len(objs))
	for _, o := range objs {
		out = append(out, obj{o.ID, o.Name, o.Owner, o.Created})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad id: %w", err))
		return
	}
	doc, err := s.cl.FetchDocument(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_ = doc.WriteTo(w, 2)
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, row := range s.cl.Shard(0).Schema.OrderingTable() {
		fmt.Fprintln(w, row)
	}
}

type defineAttrReq struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	ParentID int64  `json:"parent_id"`
	Owner    string `json:"owner"`
}

func (s *Server) handleDefineAttr(w http.ResponseWriter, r *http.Request) {
	var req defineAttrReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	def, err := s.cl.RegisterAttr(req.Name, req.Source, req.ParentID, req.Owner)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"attr_id": def.ID})
}

type defineElemReq struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	AttrID int64  `json:"attr_id"`
	Type   string `json:"type"`
	Owner  string `json:"owner"`
}

func (s *Server) handleDefineElem(w http.ResponseWriter, r *http.Request) {
	var req defineElemReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	dt, err := core.ParseDataType(req.Type)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	def, err := s.cl.RegisterElem(req.Name, req.Source, req.AttrID, dt, req.Owner)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"elem_id": def.ID})
}
