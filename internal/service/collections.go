package service

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/ontology"
)

// Ontology, when set, enables query expansion: requests with ?expand=1
// widen keyword equality predicates through the term hierarchy.
func (s *Server) SetOntology(o *ontology.Ontology) { s.ont = o }

// registerCollectionRoutes adds the aggregation/context endpoints:
//
//	POST   /collections                      {"name","owner","parent_id"} -> {"id"}
//	GET    /collections                      -> [{"id","name","owner","parent_id"}]
//	PUT    /collections/{id}/objects/{oid}   add membership
//	DELETE /collections/{id}/objects/{oid}   remove membership
//	GET    /collections/{id}/objects         -> {"ids": [...]} (subtree)
//	POST   /collections/containing           query JSON -> {"collection_ids": [...]}
//
// and extends POST /query and POST /search with ?collection=N
// (containment scope) and ?expand=1 (ontology expansion). Collections
// are owner-scoped: one lives on its owner's shard with a global ID, and
// a parent_id or membership naming another shard answers 422.
func (s *Server) registerCollectionRoutes(mux *http.ServeMux) {
	s.route(mux, "POST /collections", s.handleCreateCollection)
	s.route(mux, "GET /collections", s.handleListCollections)
	s.route(mux, "PUT /collections/{id}/objects/{oid}", s.handleMembership(true))
	s.route(mux, "DELETE /collections/{id}/objects/{oid}", s.handleMembership(false))
	s.route(mux, "GET /collections/{id}/objects", s.handleCollectionObjects)
	s.route(mux, "POST /collections/containing", s.handleContaining)
}

type createCollectionReq struct {
	Name     string `json:"name"`
	Owner    string `json:"owner"`
	ParentID int64  `json:"parent_id"`
}

func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	var req createCollectionReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	id, err := s.cl.CreateCollection(req.Name, req.Owner, req.ParentID)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) handleListCollections(w http.ResponseWriter, _ *http.Request) {
	type coll struct {
		ID       int64  `json:"id"`
		Name     string `json:"name"`
		Owner    string `json:"owner"`
		ParentID int64  `json:"parent_id"`
	}
	infos := s.cl.Collections()
	out := make([]coll, 0, len(infos))
	for _, c := range infos {
		out = append(out, coll{c.ID, c.Name, c.Owner, c.ParentID})
	}
	writeJSON(w, http.StatusOK, out)
}

func pathID(r *http.Request, name string) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad %s: %w", name, err)
	}
	return id, nil
}

func (s *Server) handleMembership(add bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cid, err := pathID(r, "id")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		oid, err := pathID(r, "oid")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if add {
			if err := s.cl.AddToCollection(cid, oid); err != nil {
				writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		removed, err := s.cl.RemoveFromCollection(cid, oid)
		if err != nil {
			writeErr(w, mutationStatus(err, http.StatusInternalServerError), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": removed})
	}
}

func (s *Server) handleCollectionObjects(w http.ResponseWriter, r *http.Request) {
	cid, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ids, err := s.cl.CollectionObjects(cid)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"ids": ids})
}

func (s *Server) handleContaining(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	ids, err := s.cl.CollectionsContaining(q, fanout(r))
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"collection_ids": ids})
}

// maybeExpand applies ontology expansion when requested and configured.
func (s *Server) maybeExpand(r *http.Request, q *catalog.Query) *catalog.Query {
	if s.ont != nil && r.URL.Query().Get("expand") == "1" {
		return ontology.Expand(s.ont, q)
	}
	return q
}

// fanout reports whether the request forces the fan-out read (?fanout=1).
func fanout(r *http.Request) bool { return r.URL.Query().Get("fanout") == "1" }

// evaluate runs a structural query, scoped to ?collection=N when given
// (routed to the collection's shard) and otherwise routed by owner or
// fanned out. The request's context rides along: when the client
// disconnects, every shard's pipeline aborts at its next stage boundary.
func (s *Server) evaluate(r *http.Request, q *catalog.Query) ([]int64, error) {
	if cs := r.URL.Query().Get("collection"); cs != "" {
		cid, err := strconv.ParseInt(cs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("service: bad collection: %w", err)
		}
		return s.cl.EvaluateInCollection(r.Context(), cid, q)
	}
	return s.cl.EvaluateContext(r.Context(), q, fanout(r))
}
