package main

import (
	"math/rand"
	"time"

	"graphtrek/internal/cache"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/sched"
)

// Probes time the layers no decorator reaches, by calling their public
// functions directly with a fixed input. Each reports the median of five
// rounds of a fixed iteration count.

const (
	probeRounds = 5
	probeItems  = 1 << 15
)

func probeMedian(items int, round func()) float64 {
	per := make([]float64, probeRounds)
	for i := range per {
		start := time.Now()
		round()
		per[i] = float64(time.Since(start)) / float64(items)
	}
	return median(per)
}

type nopAccumulator struct{}

func (nopAccumulator) ItemDone() bool { return false }

// probeSched pushes one traversal's items in dispatch-sized batches and pops
// them all: four steps, three in ten items repeating an earlier vertex, with
// priority and merging on as in ModeGraphTrek.
func probeSched() float64 {
	r := rand.New(rand.NewSource(1))
	items := make([]sched.Item, probeItems)
	for i := range items {
		v := model.VertexID(r.Intn(probeItems))
		if i > 0 && r.Intn(10) < 3 {
			v = items[r.Intn(i)].Vertex
		}
		items[i] = sched.Item{Travel: 1, Step: int32(r.Intn(4)), Vertex: v, Exec: nopAccumulator{}}
	}
	return probeMedian(probeItems, func() {
		m := sched.NewMulti(0)
		m.Register(1, sched.Options{Priority: true, Merge: true})
		const batch = 256
		for lo := 0; lo < len(items); lo += batch {
			m.Push(items[lo : lo+batch]) // unbounded queue: Push cannot refuse
		}
		for m.Len() > 0 {
			m.Pop()
		}
		m.Close()
	})
}

// probeCache runs CheckAndInsert over keys of which three in ten repeat.
func probeCache() float64 {
	r := rand.New(rand.NewSource(2))
	keys := make([]cache.Key, probeItems)
	for i := range keys {
		keys[i] = cache.Key{Travel: 1, Step: int32(r.Intn(4)), Vertex: model.VertexID(r.Intn(probeItems))}
		if i > 0 && r.Intn(10) < 3 {
			keys[i] = keys[r.Intn(i)]
		}
	}
	return probeMedian(probeItems, func() {
		c := cache.New(1 << 20)
		for _, k := range keys {
			c.CheckAndInsert(k)
		}
	})
}

// probeHistogram records latency-shaped samples into one histogram.
func probeHistogram() float64 {
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, probeItems)
	for i := range vals {
		vals[i] = int64(r.ExpFloat64() * 1e6)
	}
	var h metrics.Histogram
	return probeMedian(probeItems, func() {
		for _, v := range vals {
			h.Record(v)
		}
	})
}

func (r *report) probes() {
	r.set("sched.push_pop_ns_per_item", probeSched(), "ns")
	r.set("cache.check_insert_ns", probeCache(), "ns")
	r.set("metrics.hist_record_ns", probeHistogram(), "ns")
}
