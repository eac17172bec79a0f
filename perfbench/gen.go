package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // offset of its scheduled time from phase start
	class int           // index into the phase's class list
	arg   uint64        // the class's random argument (target instance, model, cursor)
	k     int           // occurrence of this class in its phase, for stratified targets
	base  float64       // the phase's random start for stratified targets, in [0, 1)
	due   time.Time     // absolute scheduled time, set when released
	open  bool          // part of the open-loop phase
}

// mix is a workload's request classes with their cumulative weights.
type mix struct {
	classes []class
	cum     []float64
}

func newMix(shares []share) (*mix, error) {
	m := &mix{}
	total := 0.0
	for _, s := range shares {
		c, ok := classes[s.class]
		if !ok {
			return nil, fmt.Errorf("unknown class %q", s.class)
		}
		total += s.weight
		m.classes = append(m.classes, c)
		m.cum = append(m.cum, total)
	}
	return m, nil
}

// weighted averages a per-class value with each class's share of the
// mix as its weight.
func (m *mix) weighted(value func(class int) float64) float64 {
	total := m.cum[len(m.cum)-1]
	sum, prev := 0.0, 0.0
	for i, c := range m.cum {
		sum += (c - prev) / total * value(i)
		prev = c
	}
	return sum
}

// deck returns n class indices in random order whose counts match the
// weights exactly (largest remainder), so that two runs differ in the
// order and timing of their requests but not in their composition: a
// class of 0.1% weight would otherwise swing the mix's cost from run to
// run on its own.
func (m *mix) deck(rng *rand.Rand, n int) []int {
	total := m.cum[len(m.cum)-1]
	counts := make([]int, len(m.cum))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(m.cum))
	left := n
	prev := 0.0
	for i, c := range m.cum {
		exact := float64(n) * (c - prev) / total
		prev = c
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for j := 0; j < left; j++ {
		counts[rems[j%len(rems)].i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// assign gives each arrival its class from a deck, its occurrence
// number within the class and a random argument.
func (m *mix) assign(rng *rand.Rand, arrivals []arrival) {
	seen := make([]int, len(m.cum))
	base := rng.Float64()
	for i, c := range m.deck(rng, len(arrivals)) {
		arrivals[i].base = base
		arrivals[i].class = c
		arrivals[i].k = seen[c]
		arrivals[i].arg = rng.Uint64()
		seen[c]++
	}
}

// poisson schedules arrivals at the given mean rate over dur
// (exponential gaps) and assigns their classes.
func poisson(rng *rand.Rand, m *mix, rate float64, dur time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		out = append(out, arrival{at: at, open: true})
	}
	m.assign(rng, out)
	return out
}

// outcome is one executed arrival.
type outcome struct {
	class int
	// Offsets from the phase start, in ns: scheduled, released by the
	// generator, request written, last response byte read.
	due, release, start, end int64
	parked                   bool // the worker was idle and parked until due
	ok                       bool
	req                      uint64
}

var reqIDs atomic.Uint64

// errLog prints the first few failures of a run to stderr.
type errLog struct {
	mu sync.Mutex
	n  int
}

func (l *errLog) add(class string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if l.n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", class, err)
	}
}

// openLoop releases every arrival at its scheduled time (never before)
// to whichever worker is free. Each worker owns one keep-alive
// connection, so a request that finds both busy waits in the client,
// and that wait counts: latency runs from the scheduled time, so a
// stall is charged to every request it delays. Every scheduled arrival
// is executed and recorded.
func openLoop(workers []*client, m *mix, sched []arrival, errs *errLog) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	t0 := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range workers {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := &sched[i]
				a.due = t0.Add(a.at)
				parked := time.Now().Before(a.due)
				if parked {
					if err := c.park.until(a.due); err != nil {
						errs.add("park", err)
					}
				}
				release := time.Now()
				c.req = reqIDs.Add(1)
				cl := m.classes[a.class]
				err := cl.run(c, a)
				if err != nil {
					errs.add(cl.name, err)
				}
				out[i] = outcome{
					class: a.class, due: int64(a.at), release: int64(release.Sub(t0)),
					start: int64(c.t0.Sub(t0)), end: int64(c.t1.Sub(t0)),
					parked: parked, ok: err == nil, req: c.req,
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedDeck is the closed loop's cycle of requests per worker: large
// enough that a class of 0.1% weight occurs in it.
const closedDeck = 2000

// closedResult is one closed-loop phase.
type closedResult struct {
	ok, failed int
	dur        time.Duration
	cpu        int64  // process CPU time over the phase, ns
	alloc      uint64 // bytes the process allocated over the phase
	service    []dist // per class: request written to last byte read, ns
}

// cpuPerOp is the process's CPU time per request of the phase, in µs.
func (c *closedResult) cpuPerOp() float64 {
	return ratio(float64(c.cpu)/nsPerUS, float64(c.ok+c.failed))
}

// allocPerOp is the bytes the process allocated per request of the
// phase.
func (c *closedResult) allocPerOp() float64 {
	return ratio(float64(c.alloc), float64(c.ok+c.failed))
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// closedLoop runs the mix back to back on every worker for dur: each
// worker waits for its reply before sending the next request.
func closedLoop(workers []*client, m *mix, seed int64, dur time.Duration, errs *errLog) *closedResult {
	type part struct {
		ok, failed int
		service    []dist
	}
	parts := make([]part, len(workers))
	cpu0, alloc0 := cpuTime(), totalAlloc()
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w, c := range workers {
		wg.Add(1)
		go func(p *part, w int, c *client) {
			defer wg.Done()
			p.service = make([]dist, len(m.classes))
			rng := rand.New(rand.NewSource(seed + int64(w)))
			deck := make([]arrival, closedDeck)
			m.assign(rng, deck)
			for i := 0; time.Now().Before(stop); i++ {
				a := deck[i%len(deck)]
				a.k += i / len(deck) * len(deck)
				a.due = time.Now()
				c.req = reqIDs.Add(1)
				cl := m.classes[a.class]
				if err := cl.run(c, &a); err != nil {
					errs.add(cl.name, err)
					p.failed++
					continue
				}
				p.ok++
				p.service[a.class].add(float64(c.t1.Sub(c.t0)))
			}
		}(&parts[w], w, c)
	}
	wg.Wait()
	res := &closedResult{service: make([]dist, len(m.classes))}
	for i := range parts {
		res.add(&closedResult{ok: parts[i].ok, failed: parts[i].failed, service: parts[i].service})
	}
	res.dur = dur
	res.cpu = cpuTime() - cpu0
	res.alloc = totalAlloc() - alloc0
	return res
}

// add accumulates another closed-loop phase of the same mix.
func (c *closedResult) add(o *closedResult) {
	c.ok += o.ok
	c.failed += o.failed
	c.dur += o.dur
	c.cpu += o.cpu
	c.alloc += o.alloc
	for i := range c.service {
		c.service[i].merge(&o.service[i])
	}
}
