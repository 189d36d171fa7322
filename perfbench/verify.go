package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/textindex"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

type searchReply struct {
	Total   int `json:"total"`
	Results []struct {
		ID    int64    `json:"id"`
		Score *float64 `json:"score"`
		XML   string   `json:"xml"`
	} `json:"results"`
}

// verification tallies the outcome of checking replies.
type verification struct {
	checked    int
	skipped    int // structural replies a concurrent write made ambiguous
	mismatched int
	messages   []string // the first few mismatches
}

func (v *verification) bad(o *op, format string, args ...any) {
	v.mismatched++
	if len(v.messages) < 5 {
		v.messages = append(v.messages, fmt.Sprintf("%s %s: ", o.kind, o.body)+fmt.Sprintf(format, args...))
	}
}

// verify checks replies against the DOM oracle and the generator's
// model: structural results must equal the documents baseline.DocMatches
// accepts that the query's owner may see (on the owner's shard only for
// a routed sharded query), ranked results must be a well-formed top-k of
// matching documents, and fetched or returned XML must equal its source
// document.
func (t *target) verify(samples []sample) verification {
	var v verification
	var structural []sample
	for _, s := range samples {
		switch s.op.kind {
		case opQuery, opSearch:
			if s.rep.stateAt < 0 {
				v.skipped++
				continue
			}
			structural = append(structural, s)
		case opRanked:
			t.verifyRanked(&v, s)
		case opFetch:
			v.checked++
			got, err := xmldoc.ParseString(string(s.rep.body))
			if err != nil || !xmldoc.Equal(t.c.doc(s.op.doc), got) {
				v.bad(s.op, "fetched document %d differs from its source (%v)", s.op.doc, err)
			}
		}
	}
	t.verifyStructural(&v, structural)
	return v
}

func (t *target) verifyRanked(v *verification, s sample) {
	v.checked++
	var rep searchReply
	if err := json.Unmarshal(s.rep.body, &rep); err != nil {
		v.bad(s.op, "bad reply: %v", err)
		return
	}
	k := s.op.q.Rank.K
	if k <= 0 {
		k = catalog.DefaultRankK
	}
	if len(rep.Results) > k {
		v.bad(s.op, "%d hits for k=%d", len(rep.Results), k)
	}
	terms := textindex.AnalyzeTerms(s.op.q.Rank.Terms)
	structural := *s.op.q
	structural.Rank = nil
	for i, r := range rep.Results {
		if r.Score == nil || (i > 0 && *r.Score > *rep.Results[i-1].Score) {
			v.bad(s.op, "hit %d: missing or increasing score", i)
			return
		}
		doc, ok := t.docIndex(r.ID)
		got, err := xmldoc.ParseString(r.XML)
		if !ok || err != nil || !xmldoc.Equal(t.c.doc(doc), got) {
			v.bad(s.op, "hit %d (id %d) does not match a source document (%v)", i, r.ID, err)
			return
		}
		if !hasTerm(got, terms) {
			v.bad(s.op, "hit %d (id %d) holds none of %v", i, r.ID, terms)
		}
		if len(structural.Attrs) > 0 && !baseline.DocMatches(t.c.gen.Schema, got, &structural) {
			v.bad(s.op, "hit %d (id %d) fails the structural criteria", i, r.ID)
		}
	}
}

func hasTerm(doc *xmldoc.Node, terms []string) bool {
	found := false
	doc.Walk(func(n *xmldoc.Node) bool {
		for _, tok := range textindex.Tokenize(n.Text) {
			if slices.Contains(terms, tok) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (t *target) docIndex(id int64) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.docOf[id]
	return d, ok
}

// verifyStructural sweeps the corpus once through the DOM oracle for
// every sampled query, then replays the write log to each sample's model
// state to derive the IDs its owner could see.
func (t *target) verifyStructural(v *verification, samples []sample) {
	if len(samples) == 0 {
		return
	}
	t.mu.Lock()
	ids := slices.Clone(t.idOf)
	log := slices.Clone(t.writeLog)
	uncertain := map[int]bool{}
	for d := range t.uncertain {
		uncertain[d] = true
	}
	t.mu.Unlock()

	// matches[s] lists the documents sample s's criteria accept.
	matches := make([][]int, len(samples))
	var mu sync.Mutex
	_ = parallel(clients, func(_, stripe int) error {
		local := make([][]int, len(samples))
		for d := stripe; d < len(ids); d += clients {
			if ids[d] == 0 {
				continue
			}
			doc := t.c.doc(d)
			for i, s := range samples {
				if baseline.DocMatches(t.c.gen.Schema, doc, s.op.q) {
					local[i] = append(local[i], d)
				}
			}
		}
		mu.Lock()
		for i := range matches {
			matches[i] = append(matches[i], local[i]...)
		}
		mu.Unlock()
		return nil
	})

	ownerShard := t.ownerShards()

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].rep.stateAt < samples[order[b]].rep.stateAt })
	exists := make([]bool, len(ids))
	published := make([]bool, len(ids))
	applied := 0
	for _, i := range order {
		s := samples[i]
		for ; applied < s.rep.stateAt; applied++ {
			if w := log[applied]; w.kind == opIngest {
				exists[w.doc] = true
			} else {
				published[w.doc] = w.publish
			}
		}
		q := s.op.q
		var want []int64
		ambiguous := false
		for _, d := range matches[i] {
			if !exists[d] {
				continue
			}
			if q.Owner != "" && t.c.owners[d] != q.Owner && !published[d] {
				continue
			}
			if q.Owner != "" && t.shards > 0 && !s.op.fanout {
				shard, known := ownerShard[q.Owner]
				if !known {
					// An owner with no documents yet: its shard is unknown.
					ambiguous = true
				}
				if int(ids[d]%int64(t.shards)) != shard {
					continue
				}
			}
			if uncertain[d] {
				ambiguous = true
			}
			want = append(want, ids[d])
		}
		if ambiguous {
			v.skipped++
			continue
		}
		slices.Sort(want)
		v.checked++
		t.compareStructural(v, s, want)
	}
}

func (t *target) compareStructural(v *verification, s sample, want []int64) {
	if s.op.kind == opQuery {
		var rep struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(s.rep.body, &rep); err != nil {
			v.bad(s.op, "bad reply: %v", err)
			return
		}
		if !slices.Equal(rep.IDs, want) {
			v.bad(s.op, "got %d ids, oracle %d (%s)", len(rep.IDs), len(want), firstDiff(rep.IDs, want))
		}
		return
	}
	var rep searchReply
	if err := json.Unmarshal(s.rep.body, &rep); err != nil {
		v.bad(s.op, "bad reply: %v", err)
		return
	}
	if rep.Total != len(want) {
		v.bad(s.op, "total %d, oracle %d", rep.Total, len(want))
		return
	}
	wantPage := page(want, s.op.offset)
	got := make([]int64, len(rep.Results))
	for i, r := range rep.Results {
		got[i] = r.ID
	}
	if !slices.Equal(got, wantPage) {
		v.bad(s.op, "page at offset %d: %s", s.op.offset, firstDiff(got, wantPage))
		return
	}
	for _, r := range rep.Results {
		doc, _ := t.docIndex(r.ID)
		parsed, err := xmldoc.ParseString(r.XML)
		if err != nil || !xmldoc.Equal(t.c.doc(doc), parsed) {
			v.bad(s.op, "result %d differs from its source document (%v)", r.ID, err)
			return
		}
	}
}

func firstDiff(got, want []int64) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("first difference at %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(got), len(want))
}
