package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/liquidpub/gelee/internal/resilience"
	grt "github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/store"
)

// setupRounds is how many times an untraced run sets the System up;
// setup_s is the median of their CPU times and the last one is
// measured. recoveryRounds is how many close-and-reopen cycles
// recovery_s and recovery_cpu_s are medians of.
const (
	setupRounds    = 3
	recoveryRounds = 3
)

// overheadSlices is how many untraced and traced closed-loop slices a
// traced run alternates.
const overheadSlices = 4

// floorFactor is how far above the noop floor's p99 a class's p99 must
// sit to be reported; closer, the class measures the harness.
const floorFactor = 1.5

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	w          *workload
	cfg        config
	host       string
	setups     []float64 // set-up CPU time, s
	setupWalls []float64 // set-up wall time, s
	recoveries []float64 // wall time, s
	recoverCPU []float64 // CPU time, s
	attempted  int
	failed     int
	problems   []string
	lines      []string // human-readable report
	e2e        []metric // the JSON metrics of an untraced run
	layers     []metric // the JSON metrics of a traced run
}

func (r *result) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// statsSnap is the System's counters at a phase boundary.
type statsSnap struct {
	store     store.Stats
	rt        grt.Stats
	health    resilience.Report
	cpu       int64
	mem       runtime.MemStats
	instBytes int64
	allBytes  int64
}

func snapshot(e *env) statsSnap {
	s := statsSnap{
		store:     e.sys.StoreStats(),
		rt:        e.sys.RuntimeStats(),
		health:    e.sys.HealthReport(),
		cpu:       cpuTime(),
		instBytes: dirBytes(filepath.Join(e.dir, "instances")),
		allBytes:  dirBytes(e.dir),
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// depthSampler records the highest admission queue depth it sees.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleDepth(e *env, every time.Duration) *depthSampler {
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				if q := e.sys.HealthReport().Admission.QueueDepth; q > d.max {
					d.max = q
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) finish() int {
	close(d.stop)
	<-d.done
	return d.max
}

func phaseLen(s int, pct int, floor time.Duration) time.Duration {
	d := time.Duration(s) * time.Second * time.Duration(pct) / 100
	if d < floor {
		d = floor
	}
	return d
}

func runWorkload(w *workload, cfg config) (*result, error) {
	r := &result{w: w, cfg: cfg, host: hostInfo(cfg.dir)}
	var tr *tracer
	rounds := setupRounds
	if cfg.trace {
		tr = newTracer()
		rounds = 1
	}
	var acts *actionService
	if w.actions {
		var err error
		if acts, err = newActionService(nproc(), tr); err != nil {
			return nil, err
		}
		defer acts.close()
	}

	// Set-up: build, seed and serve a fresh System each round.
	var e *env
	var heapPerInst float64
	for k := 0; k < rounds; k++ {
		if e != nil {
			e.close()
			os.RemoveAll(e.dir)
			e = nil
		}
		if acts != nil {
			acts.reset()
		}
		pre := make([]*inst, w.population)
		for i := range pre {
			pre[i] = &inst{}
		}
		before := heapAlloc()
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		e, err = startEnv(w, filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", k)), cfg.seed, tr, acts, pre)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, float64(cpuTime()-cpu0)/1e9)
		r.setupWalls = append(r.setupWalls, time.Since(t0).Seconds())
		heapPerInst = (float64(heapAlloc()) - float64(before)) / float64(w.population)
	}
	defer e.close()

	workers := make([]*client, nproc())
	for i := range workers {
		c, err := newClient(e)
		if err != nil {
			return nil, err
		}
		defer c.close()
		workers[i] = c
	}
	m, err := newMix(w.mix)
	if err != nil {
		return nil, err
	}
	noop, _ := newMix([]share{{"noop", 1}})
	errs := &errLog{}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := cfg.seconds

	// The harness floor: noop requests through the same generator at
	// the workload's rate, on the idle System.
	floor := openLoop(workers, noop, poisson(rng, noop, w.rate, phaseLen(s, 8, 500*time.Millisecond)), errs)
	// The floor's CPU cost: noop requests back to back, which is what
	// the generator and the HTTP round trip alone cost per request.
	floorClosed := closedLoop(workers, noop, cfg.seed+50, phaseLen(s, 5, 300*time.Millisecond), errs)
	// Warm-up: connections, caches and the allocator settle.
	warmSched := poisson(rng, m, w.rate, phaseLen(s, 5, 300*time.Millisecond))
	for i := range warmSched {
		warmSched[i].open = false
	}
	warm := openLoop(workers, m, warmSched, errs)

	// The measured open-loop phase.
	sched := poisson(rng, m, w.rate, phaseLen(s, 60, time.Second))
	var sampler *depthSampler
	if tr != nil {
		tr.take()
		tr.on.Store(true)
		sampler = sampleDepth(e, 10*time.Millisecond)
	}
	before := snapshot(e)
	open := openLoop(workers, m, sched, errs)
	after := snapshot(e)
	queueMax := 0
	var spans []span
	if tr != nil {
		queueMax = sampler.finish()
		spans = tr.take()
		tr.on.Store(false)
		path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, open, m.classes, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		r.linef("spans of the traced open loop: %s", path)
	}

	// The closed loop: nproc clients, each waiting for its reply. A
	// traced run alternates untraced and traced slices of it, so that
	// the tracing overhead compares the two under the same host load.
	closedLen := phaseLen(s, 30, time.Second)
	var plain, traced *closedResult
	if tr == nil {
		plain = closedLoop(workers, m, cfg.seed+100, closedLen, errs)
		traced = &closedResult{}
	} else {
		plain = &closedResult{service: make([]dist, len(m.classes))}
		traced = &closedResult{service: make([]dist, len(m.classes))}
		slice := closedLen / (2 * overheadSlices)
		for k := int64(0); k < overheadSlices; k++ {
			plain.add(closedLoop(workers, m, cfg.seed+100+k, slice, errs))
			tr.on.Store(true)
			traced.add(closedLoop(workers, m, cfg.seed+200+k, slice, errs))
			tr.on.Store(false)
			tr.take()
		}
	}

	// Requests: every executed arrival counts as attempted.
	for _, phase := range [][]outcome{floor, warm, open} {
		r.attempted += len(phase)
		for _, o := range phase {
			if !o.ok {
				r.failed++
			}
		}
	}
	for _, c := range []*closedResult{floorClosed, plain, traced} {
		r.attempted += c.ok + c.failed
		r.failed += c.failed
	}

	// End-of-run checks: actions, then the whole state.
	var act actionReport
	if acts != nil {
		acts.drain(30 * time.Second)
		act = acts.report()
		if act.missing > 0 || act.dups > 0 || act.failed > 0 || act.acked != act.started {
			r.problem("actions: %d started, %d received, %d never received, %d received twice, %d callbacks acknowledged, %d failed",
				act.started, act.received, act.missing, act.dups, act.acked, act.failed)
		}
	}
	for _, b := range e.verify() {
		r.problem("state: %s", b)
	}
	r.attempted += e.population()

	if !cfg.trace {
		for k := 0; k < recoveryRounds; k++ {
			wall, cpu, bad, err := e.recover()
			if err != nil {
				return nil, err
			}
			r.recoveries = append(r.recoveries, wall)
			r.recoverCPU = append(r.recoverCPU, cpu)
			r.attempted++
			for _, b := range bad {
				r.problem("recovery: %s", b)
			}
		}
	}

	rep := &report{r: r, w: w, m: m, floor: floor, open: open, before: before, after: after,
		act: act, spans: spans, queueMax: queueMax, floorClosed: floorClosed, plain: plain, traced: traced}
	rep.endToEnd(heapPerInst)
	if tr != nil {
		rep.perLayer(tr)
	}
	return r, nil
}
