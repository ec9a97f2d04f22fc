package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"tagdm/internal/obs"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. Failed operations enter as +Inf, so a failure counts
// as missing every latency limit. An empty sample yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the middle value (mean of the two middle values for an even
// count) of xs, which it sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate arrivals per second over [0, d): exponential gaps drawn from rng, so
// the same seed yields the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// promDelta is the change of every counter-like series between two
// /metrics scrapes: counters, histogram _sum/_count and buckets subtract;
// gauges report their value at the second scrape. Series are keyed by name
// plus sorted labels, e.g. `tagdm_solves_total{family="smlsh"}`.
type promDelta map[string]float64

func diffProm(before, after *obs.PromText) promDelta {
	prev := make(map[string]float64, len(before.Samples))
	for _, s := range before.Samples {
		prev[seriesKey(s)] = s.Value
	}
	out := make(promDelta, len(after.Samples))
	for _, s := range after.Samples {
		k := seriesKey(s)
		if after.Types[s.Name] == "gauge" {
			out[k] = s.Value
			continue
		}
		out[k] = s.Value - prev[k]
	}
	return out
}

func seriesKey(s obs.Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := s.Name + "{"
	for i, k := range keys {
		if i > 0 {
			key += ","
		}
		key += k + `="` + s.Labels[k] + `"`
	}
	return key + "}"
}

// sum adds every series of one metric name, over all label values
// (bucket series excluded).
func (d promDelta) sum(name string) float64 {
	var total float64
	for k, v := range d {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
