package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// numOwners is the number of document owners the corpus is spread over.
const numOwners = 64

// corpus is the seeded document set of one run: the preloaded documents
// plus the new documents curate ingests during the window, their owners,
// and the quarter published at setup.
type corpus struct {
	gen       *workload.Generator
	preload   int
	owners    []string // owner of document i
	published []bool   // published at setup (preload only)
	bodies    []string // XML request bodies, generated on demand
	bodyMu    sync.Mutex
	nodes     []*xmldoc.Node // DOM trees, generated on demand
	nodeMu    sync.Mutex
}

func newCorpus(seed int64, preload, extra int) *corpus {
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.Docs = preload
	total := preload + extra
	c := &corpus{
		gen:       workload.New(cfg),
		preload:   preload,
		owners:    make([]string, total),
		published: make([]bool, preload),
		bodies:    make([]string, total),
		nodes:     make([]*xmldoc.Node, total),
	}
	rng := rand.New(rand.NewSource(seed*7919 + 11))
	for i := range c.owners {
		c.owners[i] = ownerName(rng.Intn(numOwners))
	}
	for _, i := range rng.Perm(preload)[:preload/4] {
		c.published[i] = true
	}
	return c
}

func ownerName(i int) string { return fmt.Sprintf("owner%02d", i) }

func (c *corpus) total() int { return len(c.owners) }

// doc returns document i's tree. Callers must not modify it.
func (c *corpus) doc(i int) *xmldoc.Node {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	if c.nodes[i] == nil {
		c.nodes[i] = c.gen.Document(i)
	}
	return c.nodes[i]
}

// body returns document i serialized as an ingest request body.
func (c *corpus) body(i int) string {
	c.bodyMu.Lock()
	b := c.bodies[i]
	c.bodyMu.Unlock()
	if b != "" {
		return b
	}
	b = c.gen.Document(i).String()
	c.bodyMu.Lock()
	c.bodies[i] = b
	c.bodyMu.Unlock()
	return b
}

// prepareBodies serializes documents [0, n) with two workers, before any
// timing starts.
func (c *corpus) prepareBodies(n int) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				c.body(i)
			}
		}(w)
	}
	wg.Wait()
}

// definitions returns the corpus's dynamic definitions in the DefJSON
// wire format, parents first, as the generator registers them.
func (c *corpus) definitions() ([]catalog.DefJSON, error) {
	scratch, err := catalog.Open(c.gen.Schema, catalog.Options{})
	if err != nil {
		return nil, err
	}
	if err := c.gen.RegisterDefinitions(scratch); err != nil {
		return nil, err
	}
	data, err := scratch.DumpDefinitionsJSON()
	if err != nil {
		return nil, err
	}
	var defs []catalog.DefJSON
	if err := json.Unmarshal(data, &defs); err != nil {
		return nil, err
	}
	return defs, nil
}
