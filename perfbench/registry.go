package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"
)

// registry is one reading of the program's metrics registry (GET
// /metrics?format=json): counters and gauges by identity, and
// histograms with their log2 buckets.
type registry struct {
	values map[string]float64
	hists  map[string]hist
}

type hist struct {
	count   uint64
	sum     int64
	buckets map[uint64]uint64 // upper bound -> count
}

func parseRegistry(data []byte) (registry, error) {
	var st struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count   uint64            `json:"count"`
			Sum     int64             `json:"sum"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return registry{}, err
	}
	r := registry{values: map[string]float64{}, hists: map[string]hist{}}
	for k, v := range st.Counters {
		r.values[k] = float64(v)
	}
	for k, v := range st.Gauges {
		r.values[k] = float64(v)
	}
	for k, h := range st.Histograms {
		b := map[uint64]uint64{}
		for bound, n := range h.Buckets {
			u, err := strconv.ParseUint(bound, 10, 64)
			if err != nil {
				return registry{}, err
			}
			b[u] = n
		}
		r.hists[k] = hist{count: h.Count, sum: h.Sum, buckets: b}
	}
	return r, nil
}

// minus returns r - before: the activity between the two readings.
func (r registry) minus(before registry) registry {
	out := registry{values: map[string]float64{}, hists: map[string]hist{}}
	for k, v := range r.values {
		out.values[k] = v - before.values[k]
	}
	for k, h := range r.hists {
		b := before.hists[k]
		d := hist{count: h.count - b.count, sum: h.sum - b.sum, buckets: map[uint64]uint64{}}
		for bound, n := range h.buckets {
			d.buckets[bound] = n - b.buckets[bound]
		}
		out.hists[k] = d
	}
	return out
}

// matches reports whether identity id belongs to family name and carries
// every label in want (each rendered as key="value").
func matches(id, name string, want []string) bool {
	if id != name && !strings.HasPrefix(id, name+"{") {
		return false
	}
	for _, w := range want {
		if !strings.Contains(id, w) {
			return false
		}
	}
	return true
}

// sum adds the values of every identity of family name with the labels.
func (r registry) sum(name string, labels ...string) float64 {
	total := 0.0
	for id, v := range r.values {
		if matches(id, name, labels) {
			total += v
		}
	}
	return total
}

// hist merges the histograms of family name with the labels.
func (r registry) hist(name string, labels ...string) hist {
	out := hist{buckets: map[uint64]uint64{}}
	for id, h := range r.hists {
		if !matches(id, name, labels) {
			continue
		}
		out.count += h.count
		out.sum += h.sum
		for b, n := range h.buckets {
			out.buckets[b] += n
		}
	}
	return out
}

// meanUS is the histogram's mean observation in microseconds, 0 when
// empty (observations are nanoseconds).
func (h hist) meanUS() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / 1e3
}

// quantileBound is the upper bound of the log2 bucket holding quantile
// q: the histogram's resolution, not an interpolated value.
func (h hist) quantileBound(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	bounds := make([]uint64, 0, len(h.buckets))
	for b := range h.buckets {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	rank := uint64(q * float64(h.count))
	seen := uint64(0)
	for _, b := range bounds {
		seen += h.buckets[b]
		if seen > rank {
			return float64(b)
		}
	}
	return float64(bounds[len(bounds)-1])
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
