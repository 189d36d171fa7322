package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one closed-loop measurement saw.
type window struct {
	lats      [numKinds][]time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
	done      []time.Duration // completion time of each op, from the start
	samples   []sample
	errors    []string
}

// sample is one op whose reply is kept for verification.
type sample struct {
	op  *op
	rep reply
}

// maxSamples bounds the replies a timed run keeps for verification.
const maxSamples = 160

// runWindow drives the op stream from index 0 with the closed-loop
// clients for d, keeping every every-th read reply as a verification
// sample.
func runWindow(t *target, s *opStream, d time.Duration, every int) window {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		w        window
		wg       sync.WaitGroup
		start    = time.Now()
		deadline = start.Add(d)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				o := s.at(i)
				r := t.exec(o)
				at := time.Since(start)
				keep := i%every == 0 && o.kind != opIngest && o.kind != opPublish
				mu.Lock()
				w.done = append(w.done, at)
				w.record(i, o, r, keep && len(w.samples) < maxSamples)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// throughput is the median over the window's whole seconds of the ops
// completed in each, so a transient stall of the shared machine moves
// it less than it moves the mean.
func (w *window) throughput() float64 {
	secs := int(w.elapsed / time.Second)
	if secs == 0 {
		return float64(w.attempted) / w.elapsed.Seconds()
	}
	per := make([]float64, secs)
	for _, at := range w.done {
		if s := int(at / time.Second); s < secs {
			per[s]++
		}
	}
	return medianOf(per)
}

func (w *window) record(i int, o *op, r reply, keep bool) {
	w.attempted++
	w.lats[o.kind] = append(w.lats[o.kind], r.lat)
	if r.failed() {
		w.fail(fmt.Sprintf("op %d %s: status %d: %v %.200s", i, o.kind, r.status, r.err, r.body))
	} else if keep {
		w.samples = append(w.samples, sample{op: o, rep: r})
	}
}

func (w *window) fail(msg string) {
	w.failed++
	if len(w.errors) < 5 {
		w.errors = append(w.errors, msg)
	}
}
