package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The benchmark runs on shared hosts whose CPU speed drifts by 20-80% over
// minutes, for longer than one run lasts, and a median inside one run
// cannot remove a slowdown that covers all of it. So each run also times
// a fixed kernel of its own, between its measured phases, and reports
// every time-based metric at reference speed: a time divided by the run's
// slowdown, a rate multiplied by it. The kernel is the benchmark's code,
// not the program's, so a change to the program moves the metrics and
// leaves the probe alone. The correction is partial: it left about half
// of the drift in paper-batch's raw figures, and a process contending for
// the second CPU slows the server workload more than a one-goroutine probe.
// The run record keeps the raw figures and the slowdown factor.

// refSortMs and refLookupMs are the median times of the kernel's two
// parts on the 2-CPU host the benchmark was sized on: normalised figures
// read as that host's.
const (
	refSortMs   = 3.0
	refLookupMs = 0.28
)

// probeReps is how many times one probe runs the kernel.
const probeReps = 10

// kernel is the fixed work a probe times, in two parts: four sorts of a
// 32 KiB slice of random numbers (branchy compute that stays in cache),
// and 16 Ki lookups, in the map's own iteration order, into a 512 Ki-entry
// map. Each was tried against the paper-batch solvers over minutes of
// drift, with a dependent walk over 16 MiB, a bitmap union over 8 MiB,
// random map lookups, JSON, flate and regexp: the solvers' time moved as
// the sorts' time to the power 1.2-1.5 and as the lookups' to the power
// 0.75-1.0, and the mean of the two parts' slowdowns left the least of the
// drift (a log spread of 0.05-0.06, from 0.11-0.15 raw). Its data comes
// from a fixed seed, never from --seed.
type kernel struct {
	src, buf []uint32
	table    map[uint32]uint32
	keys     []uint32
}

func newKernel() *kernel {
	rng := rand.New(rand.NewSource(1))
	k := &kernel{src: make([]uint32, 1<<13), buf: make([]uint32, 1<<13), table: make(map[uint32]uint32, 1<<19)}
	for i := range k.src {
		k.src[i] = rng.Uint32()
	}
	for len(k.table) < 1<<19 {
		k.table[rng.Uint32()] = uint32(len(k.table))
	}
	for key := range k.table {
		if len(k.keys) == 1<<14 {
			break
		}
		k.keys = append(k.keys, key)
	}
	return k
}

// sort and lookup do the two parts' work once and return a value that
// depends on all of it, so none can be optimised away.
func (k *kernel) sort() uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		copy(k.buf, k.src)
		slices.Sort(k.buf)
		v += k.buf[i]
	}
	return v
}

func (k *kernel) lookup() uint32 {
	var v uint32
	for _, key := range k.keys {
		v += k.table[key]
	}
	return v
}

// speed collects the probe times of one run.
type speed struct {
	k              *kernel
	sink           uint32
	sorts, lookups []float64
	// spent is the wall time the probes took, which phases that time
	// themselves as a whole leave out.
	spent time.Duration
}

func newSpeed() *speed { return &speed{k: newKernel()} }

// run times both parts of the kernel once.
func (s *speed) run() {
	t0 := time.Now()
	s.sink += s.k.sort()
	t1 := time.Now()
	s.sink += s.k.lookup()
	s.sorts = append(s.sorts, ms(t1.Sub(t0)))
	s.lookups = append(s.lookups, ms(time.Since(t1)))
}

// probe runs the kernel probeReps times, after a garbage collection so
// that none runs beside it.
func (s *speed) probe() {
	start := time.Now()
	runtime.GC()
	for range probeReps {
		s.run()
	}
	s.spent += time.Since(start)
}

// tick runs the kernel once, with no collection first: a probe spread
// through a measured loop.
func (s *speed) tick() {
	start := time.Now()
	s.run()
	s.spent += time.Since(start)
}

// slowdown is how much slower than the reference host the run's probes
// ran: the mean of the two parts' median times over their references.
func (s *speed) slowdown() float64 {
	return (median(slices.Clone(s.sorts))/refSortMs + median(slices.Clone(s.lookups))/refLookupMs) / 2
}
