package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// openLoop sends the audit mix on a seeded Poisson schedule whether or not
// earlier operations have completed. Latency counts from the time an
// operation was due, so a stall shows in every operation queued behind it.
// It is a diagnostic only: on two cores the generator shares its processors
// with the servers, and how late it runs is reported beside the latency.
func (in *instance) openLoop(r *report, seed int64) {
	z := in.z
	src := in.sources(seed+3, false)[0]
	gaps := rand.New(rand.NewSource(seed + 4))
	var (
		mu       sync.Mutex
		lats     []time.Duration
		late     []time.Duration
		failed   int
		inFlight = make(chan struct{}, z.OpenInFlight) // one token per operation in flight
		wg       sync.WaitGroup
	)
	start := time.Now()
	for due := time.Duration(0); due < z.OpenLength; due += time.Duration(gaps.ExpFloat64() / z.OpenRate * float64(time.Second)) {
		time.Sleep(time.Until(start.Add(due)))
		o := src.next()
		lateness := time.Since(start) - due
		select {
		case inFlight <- struct{}{}:
		default:
			mu.Lock()
			failed++
			late = append(late, lateness)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(due time.Duration) {
			defer wg.Done()
			err := in.do(o)
			lat := time.Since(start) - due
			<-inFlight
			mu.Lock()
			defer mu.Unlock()
			late = append(late, lateness)
			if err != nil {
				failed++
				return
			}
			lats = append(lats, lat)
		}(due)
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	r.set("client.open_lat_p50_ms", ms(percentile(lats, 0.50)), "ms")
	r.set("client.open_lat_p99_ms", ms(percentile(lats, 0.99)), "ms")
	r.set("client.open_late_p99_ms", ms(percentile(late, 0.99)), "ms")
	r.set("client.open_failed", float64(failed), "count")
	r.Samples["open_loop_ops"] = len(lats)
}
