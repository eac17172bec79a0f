package main

import (
	"fmt"
	"io"
	"strings"
)

// report turns one run's outcomes, spans and counters into metrics.
type report struct {
	r             *result
	w             *workload
	m             *mix
	floor, open   []outcome
	before, after statsSnap
	act           actionReport
	spans         []span
	queueMax      int
	floorClosed   *closedResult
	plain, traced *closedResult
}

const (
	nsPerMS = 1e6
	nsPerUS = 1e3
)

// latency collects end minus scheduled time (ns) of the acknowledged
// outcomes that keep says to.
func latency(out []outcome, keep func(o outcome) bool) *dist {
	d := &dist{}
	for _, o := range out {
		if o.ok && keep(o) {
			d.add(float64(o.end - o.due))
		}
	}
	return d
}

func all(outcome) bool { return true }

// harnessLag is how late the generator released the arrivals it was
// waiting for (parked workers only: a busy worker's late release is
// queueing, which the latency already charges).
func harnessLag(out []outcome) *dist {
	d := &dist{}
	for _, o := range out {
		if o.parked {
			d.add(float64(o.release - o.due))
		}
	}
	return d
}

func (p *report) isWrite(o outcome) bool { return p.m.classes[o.class].write }

func fmtDist(d *dist, scale float64, unit string) string {
	if d.n() == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.3f%s", d.q(0.5)/scale, unit)
	if tp := tailP(d.n()); tp > 0 {
		s += fmt.Sprintf(" p%g %.3f%s", tp*100, d.q(tp)/scale, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", d.n())
}

func (p *report) endToEnd(heapPerInst float64) {
	throughput := float64(p.plain.ok) / p.plain.dur.Seconds()
	r, w := p.r, p.w
	floorLat := latency(p.floor, all)
	writes := latency(p.open, p.isWrite)
	reads := latency(p.open, func(o outcome) bool { return !p.isWrite(o) })
	acked := writes.n()

	lag := harnessLag(p.open)
	r.linef("harness floor (noop, %.0f/s): %s", p.w.rate, fmtDist(floorLat, nsPerUS, "us"))
	r.linef("generator lag (release minus scheduled, parked workers): %s", fmtDist(lag, nsPerUS, "us"))
	r.linef("open loop at %.0f/s, %d arrivals, latency from scheduled arrival to last response byte:", w.rate, len(p.open))
	// Per class, unless the class is too close to the harness floor to
	// be measuring the System: its p99 within floorFactor of the noop
	// p99, or its p50 not above the noop p50 and the generator's lag p99.
	perClass := make([]*dist, len(p.m.classes))
	for i := range perClass {
		perClass[i] = latency(p.open, func(o outcome) bool { return o.class == i })
	}
	for i, c := range p.m.classes {
		d := perClass[i]
		if d.n() == 0 {
			continue
		}
		switch {
		case d.q(0.99) <= floorFactor*floorLat.q(0.99):
			r.linef("  %-12s invalid: p99 within %.1fx of the harness floor p99 (n=%d)", c.name, floorFactor, d.n())
			continue
		case d.q(0.5) <= max(floorLat.q(0.5), lag.q(0.99)):
			r.linef("  %-12s invalid: p50 not above the noop p50 and the generator lag p99 (n=%d)", c.name, d.n())
			continue
		}
		r.linef("  %-12s %s", c.name, fmtDist(d, nsPerMS, "ms"))
	}
	r.linef("end to end:")
	line := func(name string, v float64, unit, note string) {
		r.linef("  %-22s %14.6f %-6s %s", name, v, unit, note)
	}
	if writes.n() > 0 {
		line("write_p50_ms", writes.q(0.5)/nsPerMS, "ms", fmt.Sprintf("n=%d", writes.n()))
		line("write_p99_ms", writes.q(0.99)/nsPerMS, "ms", limitNote(writes.q(0.99)/nsPerMS, w.writeLimit))
	}
	if reads.n() > 0 {
		line("read_p50_ms", reads.q(0.5)/nsPerMS, "ms", fmt.Sprintf("n=%d", reads.n()))
		line("read_p99_ms", reads.q(0.99)/nsPerMS, "ms", limitNote(reads.q(0.99)/nsPerMS, w.readLimit))
	}
	if w.actions {
		line("action_p50_ms", p.act.latency.q(0.5)/nsPerMS, "ms", fmt.Sprintf("n=%d", p.act.latency.n()))
		line("action_p99_ms", p.act.latency.q(0.99)/nsPerMS, "ms", limitNote(p.act.latency.q(0.99)/nsPerMS, w.actionLimit))
	}
	line("throughput_rps", throughput, "ops/s", fmt.Sprintf("closed loop, %d clients", nproc()))
	line("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", fmt.Sprintf("%d of %d", r.failed, r.attempted))
	if !r.cfg.trace {
		line("recovery_s", median(r.recoveries), "s", fmt.Sprintf("median of %s close-reopen cycles, state compared instance by instance", secsList(r.recoveries)))
		line("recovery_cpu_s", median(r.recoverCPU), "s", fmt.Sprintf("CPU time, median of %s", secsList(r.recoverCPU)))
	}
	line("heap_b_per_instance", heapPerInst, "B", fmt.Sprintf("population %d", w.population))
	if acked > 0 {
		line("disk_b_per_write", ratio(float64(p.after.allBytes-p.before.allBytes), float64(acked)), "B", "both journals")
	}
	line("setup_s", median(r.setups), "s", fmt.Sprintf("CPU time, median of %s (wall %s)", secsList(r.setups), secsList(r.setupWalls)))
	line("cpu_us_per_op", p.plain.cpuPerOp(), "us", fmt.Sprintf("process CPU per closed-loop request; the noop floor alone costs %.1f", p.floorClosed.cpuPerOp()))
	line("alloc_b_per_op", p.plain.allocPerOp(), "B", fmt.Sprintf("allocated per closed-loop request; the noop floor alone allocates %.0f", p.floorClosed.allocPerOp()))
	r.e2e = []metric{
		{"setup_s", median(r.setups), "s"},
		{"heap_b_per_instance", heapPerInst, "B"},
		{"alloc_b_per_op", p.plain.allocPerOp(), "B"},
	}
}

func secsList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]s"
}

func limitNote(v, limit float64) string {
	if limit == 0 {
		return ""
	}
	if v <= limit {
		return fmt.Sprintf("limit %.0f ms: met", limit)
	}
	return fmt.Sprintf("limit %.0f ms: MISSED", limit)
}

// stages is one request's time split along its blocking path, in ns.
type stages struct {
	wait, transport, httpapi, guard, runtime, journal float64
}

var stageNames = []string{"generator wait", "transport", "httpapi (+monitor)", "access+admission", "runtime", "store.instances"}

func (s stages) values() []float64 {
	return []float64{s.wait, s.transport, s.httpapi, s.guard, s.runtime, s.journal}
}

var (
	writeVerbs = map[string]bool{bAdvance: true, bInstantiate: true, bAnnotate: true, bReport: true}
	readVerbs  = map[string]bool{bPage: true, bFiltered: true, bModel: true}
)

// split derives a request's stages from its client timestamps and
// server-side spans; runtime is the facade verbs' self time, with the
// instance-journal calls taken out.
func split(o outcome, rs *reqSpans) stages {
	srv := interval{rs.server.start, rs.server.end}
	st := stages{
		wait:      float64(o.start - o.due),
		transport: float64((o.end - o.start) - (srv.end - srv.start)),
		httpapi:   float64(selfTime(srv, intervals(rs.backend))),
	}
	journal := intervals(rs.journal)
	for _, b := range rs.backend {
		d := b.end - b.start
		if writeVerbs[b.name] || readVerbs[b.name] {
			st.runtime += float64(d - covered(interval{b.start, b.end}, journal))
		} else {
			st.guard += float64(d)
		}
	}
	for _, j := range journal {
		st.journal += float64(j.end - j.start)
	}
	return st
}

func (p *report) perLayer(tr *tracer) {
	r := p.r
	byReq := groupByRequest(p.spans)
	floorLat := latency(p.floor, all)

	lag := harnessLag(p.open)
	var transport, selfAll, selfW, selfR, rtAll, rtW, rtR, filtered, record, summary, row dist
	var respBytes, readBytes, nReads float64
	perClass := make([][]stages, len(p.m.classes))
	e2e := make([]dist, len(p.m.classes))
	for _, o := range p.open {
		rs := byReq[o.req]
		if !o.ok || rs == nil || rs.server == nil {
			continue
		}
		write := p.m.classes[o.class].write
		st := split(o, rs)
		perClass[o.class] = append(perClass[o.class], st)
		e2e[o.class].add(float64(o.end - o.due))
		transport.add(st.transport)
		selfAll.add(st.httpapi)
		respBytes += float64(rs.server.bytes)
		if write {
			selfW.add(st.httpapi)
		} else {
			selfR.add(st.httpapi)
			readBytes += float64(rs.server.bytes)
			nReads++
		}
		journal := intervals(rs.journal)
		for _, b := range rs.backend {
			self := float64(b.end - b.start - covered(interval{b.start, b.end}, journal))
			switch {
			case writeVerbs[b.name]:
				rtAll.add(self)
				rtW.add(self)
			case readVerbs[b.name]:
				rtAll.add(self)
				rtR.add(self)
				if b.name == bFiltered {
					filtered.add(self)
				}
			}
		}
		switch rs.server.name {
		case "/api/v1/monitor/summary":
			summary.add(float64(rs.server.end - rs.server.start))
		case "/api/v1/monitor/overview":
			row.add(float64(rs.server.end - rs.server.start))
		}
	}
	for _, s := range p.spans {
		if s.layer == layerJournal {
			record.add(float64(s.end - s.start))
		}
	}

	// Counter deltas over the open-loop phase.
	b, a := p.before, p.after
	writes := 0.0
	ops := float64(len(p.open))
	for _, o := range p.open {
		if o.ok && p.isWrite(o) {
			writes++
		}
	}
	var instFlushes float64
	if a.store.Instances != nil && b.store.Instances != nil {
		instFlushes = float64(a.store.Instances.Batches - b.store.Instances.Batches)
	}
	instB := float64(a.instBytes - b.instBytes)
	eng := func(f func(s statsSnap) uint64) float64 { return float64(f(a) - f(b)) }
	appends := eng(func(s statsSnap) uint64 { return s.store.Engine.Appends })
	syncs := eng(func(s statsSnap) uint64 { return s.store.Engine.Syncs })
	batches := eng(func(s statsSnap) uint64 { return s.store.Engine.Batches })
	mr, mb := a.store.Reads["models"], b.store.Reads["models"]
	cacheHits := float64(mr.CacheHits - mb.CacheHits)
	cacheMisses := float64(mr.CacheMisses - mb.CacheMisses)
	evictions := float64(mr.CacheEvictions - mb.CacheEvictions)
	pa, pb := a.rt.PopulationIndex, b.rt.PopulationIndex
	scans := float64(pa.ScanQueries - pb.ScanQueries)
	indexed := float64(pa.IndexedQueries - pb.IndexedQueries)
	shed := float64(a.health.Admission.Shed - b.health.Admission.Shed)
	admitted := float64(a.health.Admission.Admitted - b.health.Admission.Admitted)
	alloc := float64(a.mem.TotalAlloc - b.mem.TotalAlloc)
	gcs := float64(a.mem.NumGC - b.mem.NumGC)

	// Invoke: dispatch is receipt at the action service minus the end
	// of the advance's facade call (when the runtime launched it).
	var dispatch dist
	for _, d := range p.act.dispatch(tr, byReq) {
		dispatch.add(d)
	}

	// Tracing overhead: the closed loop's mix-weighted median service
	// time, traced minus untraced.
	serviceMedian := func(c *closedResult) float64 {
		return p.m.weighted(func(i int) float64 { return c.service[i].q(0.5) })
	}
	plainSvc, tracedSvc := serviceMedian(p.plain), serviceMedian(p.traced)
	overhead := tracedSvc - plainSvc

	us := func(v float64) float64 { return v / nsPerUS }
	r.layers = []metric{
		{"harness.noop_p50_us", us(floorLat.q(0.5)), "us"},
		{"harness.noop_p99_us", us(floorLat.q(0.99)), "us"},
		{"harness.lag_p99_us", us(lag.q(0.99)), "us"},
		{"transport.p50_us", us(transport.q(0.5)), "us"},
		{"httpapi.self_p50_us", us(selfAll.q(0.5)), "us"},
		{"httpapi.self_p99_us", us(selfAll.q(0.99)), "us"},
		{"httpapi.resp_b_per_op", ratio(respBytes, float64(selfAll.n())), "B"},
		{"runtime.self_p50_us", us(rtAll.q(0.5)), "us"},
		{"runtime.self_p99_us", us(rtAll.q(0.99)), "us"},
		{"runtime.popindex.scan_frac", ratio(scans, scans+indexed), "ratio"},
		{"store.instances.flushes_per_write", ratio(instFlushes, writes), "count"},
		{"store.instances.b_per_write", ratio(instB, writes), "B"},
		{"store.journal.appends_per_write", ratio(appends, writes), "count"},
		{"store.journal.syncs_per_write", ratio(syncs, writes), "count"},
		{"store.journal.batch_mean", ratio(appends, batches), "count"},
		{"store.readcache.hit_frac", ratio(cacheHits, cacheHits+cacheMisses), "ratio"},
		{"store.readcache.evict_per_read", ratio(evictions, nReads), "ratio"},
		{"invoke.received_per_started", ratio(float64(p.act.received), float64(p.act.started)), "ratio"},
		{"invoke.breaker_rejected", float64(a.health.BreakerRejected - b.health.BreakerRejected), "count"},
		{"resilience.shed_frac", ratio(shed, shed+admitted), "ratio"},
		{"resilience.queue_depth_max", float64(p.queueMax), "count"},
		{"process.cpu_us_per_op", p.plain.cpuPerOp(), "us"},
		{"process.alloc_b_per_op", ratio(alloc, ops), "B"},
		{"process.gc_per_kop", ratio(gcs*1000, ops), "count"},
		{"trace.overhead_us_per_op", us(overhead), "us"},
	}

	r.linef("per layer (traced open loop; layers idle on this workload read n/a):")
	opt := func(name string, d *dist, p float64, scale float64, unit string) {
		if d.n() == 0 {
			r.linef("  %-34s n/a", name)
			return
		}
		r.linef("  %-34s %12.3f %s (n=%d)", name, d.q(p)/scale, unit, d.n())
	}
	opt("httpapi.write_self_p50_us", &selfW, 0.5, nsPerUS, "us")
	opt("httpapi.read_self_p50_us", &selfR, 0.5, nsPerUS, "us")
	opt("httpapi.read_self_p99_us", &selfR, 0.99, nsPerUS, "us")
	if nReads > 0 {
		r.linef("  %-34s %12.1f B", "httpapi.resp_b_per_read", readBytes/nReads)
	} else {
		r.linef("  %-34s n/a", "httpapi.resp_b_per_read")
	}
	opt("runtime.write_self_p50_us", &rtW, 0.5, nsPerUS, "us")
	opt("runtime.write_self_p99_us", &rtW, 0.99, nsPerUS, "us")
	opt("runtime.read_p50_us", &rtR, 0.5, nsPerUS, "us")
	opt("runtime.read_p99_us", &rtR, 0.99, nsPerUS, "us")
	opt("runtime.filtered_page_p50_us", &filtered, 0.5, nsPerUS, "us")
	opt("store.instances.record_p50_us", &record, 0.5, nsPerUS, "us")
	opt("store.instances.record_p99_us", &record, 0.99, nsPerUS, "us")
	opt("monitor.summary_p50_ms", &summary, 0.5, nsPerMS, "ms")
	opt("monitor.row_p50_us", &row, 0.5, nsPerUS, "us")
	opt("invoke.dispatch_p50_ms", &dispatch, 0.5, nsPerMS, "ms")
	opt("invoke.callback_p50_us", &p.act.cbRTT, 0.5, nsPerUS, "us")
	opt("invoke.callback_p99_us", &p.act.cbRTT, 0.99, nsPerUS, "us")
	for _, m := range r.layers {
		r.linef("  %-34s %12.3f %s", m.name, m.value, m.unit)
	}
	r.linef("tracing overhead: closed-loop service time (class medians weighted by share) %.1fus untraced vs %.1fus traced (%+.1f%%)",
		plainSvc/nsPerUS, tracedSvc/nsPerUS, 100*ratio(overhead, plainSvc))

	// Layer by layer: per class, the stage medians along the blocking
	// path against the end-to-end median.
	r.linef("stage medians along the blocking path (us) vs end-to-end median:")
	r.linef("  %-12s %s | %9s %9s %6s", "class", strings.Join(stageNames, " "), "sum", "e2e", "sum/e2e")
	for i, sts := range perClass {
		if len(sts) == 0 {
			continue
		}
		meds := make([]float64, len(stageNames))
		cols := make([]string, len(stageNames))
		sum := 0.0
		for k := range stageNames {
			var d dist
			for _, st := range sts {
				d.add(st.values()[k])
			}
			meds[k] = d.q(0.5) / nsPerUS
			sum += meds[k]
			cols[k] = fmt.Sprintf("%*.1f", len(stageNames[k]), meds[k])
		}
		med := e2e[i].q(0.5) / nsPerUS
		r.linef("  %-12s %s | %9.1f %9.1f %6.2f", p.m.classes[i].name, strings.Join(cols, " "), sum, med, ratio(sum, med))
	}
}

// dispatch pairs each received open-loop invocation with the facade
// span of the advance that started it.
func (a actionReport) dispatch(tr *tracer, byReq map[uint64]*reqSpans) []float64 {
	var out []float64
	for inv, req := range a.reqOf {
		got, ok := a.receipts[inv]
		rs := byReq[req]
		if !ok || rs == nil {
			continue
		}
		for _, b := range rs.backend {
			if b.name == bAdvance {
				out = append(out, float64(got.Sub(tr.epoch))-float64(b.end))
			}
		}
	}
	return out
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.w.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "# host: %s\n", r.host)
	fmt.Fprintf(w, "# fsync policy: %s\n", fsyncPolicy(r.w))
	fmt.Fprintf(w, "# latencies are the measuring host's: HTTP over loopback in one process, fsync onto whatever backs the data directory (on a VM, often the hypervisor's page cache), not a device's\n")
	fmt.Fprintf(w, "# population %d instances over %d models (read cache: 64 entries x 16 shards = 1024); %d generator connections\n",
		r.w.population, r.w.models, nproc())
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

func fsyncPolicy(w *workload) string {
	if w.sync {
		return "SyncJournal: every instance-journal append and every execution-log group commit is fsynced before the write is acknowledged"
	}
	return "no fsync: journal appends reach the page cache only (geleed's default)"
}

// jsonLine is the machine-readable result, printed as the last line.
func (r *result) jsonLine() any {
	ms := r.e2e
	if r.cfg.trace {
		ms = r.layers
	}
	metrics := make(map[string]any, len(ms))
	for _, m := range ms {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}
