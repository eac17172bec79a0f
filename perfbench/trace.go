package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/httpapi"
	"github.com/liquidpub/gelee/internal/resource"
	grt "github.com/liquidpub/gelee/internal/runtime"
)

// reqHeader carries the generator's request id to the server so that
// every span of one request shares it.
const reqHeader = "X-Bench-Req"

// Span layers. A request's spans nest: server ⊃ backend ⊃ journal.
const (
	layerServer  = iota // middleware around the httpapi handler
	layerBackend        // a call from httpapi into the gelee facade
	layerJournal        // a runtime call into the instance-journal sink
)

type span struct {
	req        uint64
	layer      int
	name       string
	inst       string // instance the call concerned, where known
	start, end int64  // ns since the tracer's epoch
	bytes      int64  // response bytes (server spans)
}

// tracer records spans from outside the program: an HTTP middleware, a
// timing httpapi.Backend and a journal wrapper. Spans are kept in
// memory and analysed when the phase ends. The wrappers are installed
// for the whole traced run and record only while on is set, so the
// untraced comparison inside a traced run pays one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	slots chan *slot
	// A callback names only its invocation. The action service notes
	// each invocation's resource on receipt, before it calls back, and
	// the benchmark notes each resource's instance, so the Report span
	// can name its instance and its journal record joins it.
	invRes  sync.Map // invocation id -> resource URI
	resInst sync.Map // resource URI -> instance id
}

// slot is one traced handler stack: httpapi over a timing backend that
// knows which request it is serving. A request takes a free slot for
// its duration, which is how backend spans learn the request id
// without goroutine-local state.
type slot struct {
	req uint64
	h   http.Handler
}

// maxSlots bounds the idle traced stacks kept for reuse; more are built
// when more requests are in flight at once.
const maxSlots = 16

func newTracer() *tracer { return &tracer{epoch: time.Now(), slots: make(chan *slot, maxSlots)} }

func (t *tracer) noteResource(res, inst string) { t.resInst.Store(res, inst) }

func (t *tracer) noteInvocation(inv, res string) { t.invRes.Store(inv, res) }

// instOfInvocation is the instance an invocation acts for, or "".
func (t *tracer) instOfInvocation(inv string) string {
	if res, ok := t.invRes.Load(inv); ok {
		if id, ok := t.resInst.Load(res); ok {
			return id.(string)
		}
	}
	return ""
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh set.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// handler serves plain (exactly System.HTTPHandler) while tracing is
// off and a traced stack — this middleware over httpapi over the timing
// backend — while it is on.
func (t *tracer) handler(plain http.Handler, sys *gelee.System, auth bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			plain.ServeHTTP(w, r)
			return
		}
		var sl *slot
		select {
		case sl = <-t.slots:
		default:
			sl = &slot{}
			sl.h = httpapi.New(timedBackend{System: sys, t: t, s: sl}, httpapi.Options{RequireAuth: auth})
		}
		sl.req, _ = strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		sl.h.ServeHTTP(cw, r)
		t.add(span{req: sl.req, layer: layerServer, name: r.URL.Path, start: start, end: t.now(), bytes: cw.n})
		select {
		case t.slots <- sl:
		default:
		}
	})
}

// timedBackend is the httpapi.Backend the traced stack serves from: the
// System itself, with the calls the workloads reach timed. Monitor()
// hands out the monitor, whose calls cannot be timed from here, so
// monitor routes show up as server time only.
type timedBackend struct {
	*gelee.System
	t *tracer
	s *slot
}

// Backend span names, grouped into layers by the report.
const (
	bAdvance     = "advance"
	bInstantiate = "instantiate"
	bAnnotate    = "annotate"
	bReport      = "report"
	bPage        = "page"
	bFiltered    = "filtered_page"
	bModel       = "model"
	bAdmit       = "admit"
	bUser        = "user"
)

func (b timedBackend) span(name, inst string, start int64) {
	b.t.add(span{req: b.s.req, layer: layerBackend, name: name, inst: inst, start: start, end: b.t.now()})
}

func (b timedBackend) AdvanceSummary(id, to, actor string, o grt.AdvanceOptions) (grt.MoveResult, error) {
	s := b.t.now()
	defer b.span(bAdvance, id, s)
	return b.System.AdvanceSummary(id, to, actor, o)
}

func (b timedBackend) Instantiate(modelURI string, ref resource.Ref, owner string, bindings map[string]map[string]string) (grt.Snapshot, error) {
	s := b.t.now()
	snap, err := b.System.Instantiate(modelURI, ref, owner, bindings)
	b.span(bInstantiate, snap.ID, s)
	return snap, err
}

func (b timedBackend) Annotate(id, actor, note string) error {
	s := b.t.now()
	defer b.span(bAnnotate, id, s)
	return b.System.Annotate(id, actor, note)
}

func (b timedBackend) Report(up actionlib.StatusUpdate) error {
	inst := b.t.instOfInvocation(up.InvocationID)
	s := b.t.now()
	defer b.span(bReport, inst, s)
	return b.System.Report(up)
}

func (b timedBackend) QuerySummaries(f grt.Filter, after int64, limit int) grt.SummaryPage {
	name := bPage
	if f != (grt.Filter{}) {
		name = bFiltered
	}
	s := b.t.now()
	defer b.span(name, "", s)
	return b.System.QuerySummaries(f, after, limit)
}

func (b timedBackend) ModelView(uri string) (*core.Model, bool) {
	s := b.t.now()
	defer b.span(bModel, "", s)
	return b.System.ModelView(uri)
}

func (b timedBackend) AdmitMutation() error {
	s := b.t.now()
	defer b.span(bAdmit, "", s)
	return b.System.AdmitMutation()
}

func (b timedBackend) UserExists(name string) bool {
	s := b.t.now()
	defer b.span(bUser, "", s)
	return b.System.UserExists(name)
}

// timedJournal times the runtime's calls into the instance-journal sink
// (installed through ResilienceOptions.WrapJournal). The sink cannot
// tell which request it serves; the report joins a record to the
// facade call on the same instance whose span contains it.
type timedJournal struct {
	inner grt.Journal
	t     *tracer
}

func (j timedJournal) Record(rec *grt.JournalRecord) error {
	if !j.t.on.Load() {
		return j.inner.Record(rec)
	}
	s := j.t.now()
	err := j.inner.Record(rec)
	j.t.add(span{layer: layerJournal, name: "record", inst: rec.Instance, start: s, end: j.t.now()})
	return err
}

var layerNames = []string{layerServer: "server", layerBackend: "backend", layerJournal: "journal"}

// writeSpans writes a traced phase as JSON lines: one "client" record
// per generator request (its scheduled, release, write and last-byte
// times, relative to the phase start) and the server-side spans
// (relative to the tracer's epoch), joined by request id.
func writeSpans(path string, open []outcome, classes []class, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, o := range open {
		enc.Encode(map[string]any{"layer": "client", "req": o.req, "class": classes[o.class].name, "ok": o.ok,
			"due_ns": o.due, "release_ns": o.release, "start_ns": o.start, "end_ns": o.end})
	}
	for _, s := range spans {
		enc.Encode(map[string]any{"layer": layerNames[s.layer], "req": s.req, "name": s.name, "inst": s.inst,
			"start_ns": s.start, "end_ns": s.end, "bytes": s.bytes})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a [start, end) span of time in ns.
type interval struct{ start, end int64 }

// covered is the length of the part of parent that the union of
// children covers: children are clipped to the parent, and overlapping
// children count once.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total int64
	var cur interval
	for i, c := range cs {
		if i == 0 {
			cur = c
			continue
		}
		if c.start <= cur.end {
			if c.end > cur.end {
				cur.end = c.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = c
	}
	if len(cs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// reqSpans groups one request's spans.
type reqSpans struct {
	server  *span
	backend []span
	journal []span
}

// groupByRequest groups spans by request id. Journal spans carry no
// request id: each goes to the request whose facade call on the same
// instance contains it, the narrowest such call when several do (a
// call blocked on the instance's lock spans the record it waited for).
func groupByRequest(spans []span) map[uint64]*reqSpans {
	m := make(map[uint64]*reqSpans)
	get := func(req uint64) *reqSpans {
		r := m[req]
		if r == nil {
			r = &reqSpans{}
			m[req] = r
		}
		return r
	}
	type owner struct {
		req uint64
		iv  interval
	}
	byInst := make(map[string][]owner)
	for i := range spans {
		s := &spans[i]
		if s.req == 0 || s.layer == layerJournal {
			continue
		}
		r := get(s.req)
		if s.layer == layerServer {
			r.server = s
			continue
		}
		r.backend = append(r.backend, *s)
		if s.inst != "" {
			byInst[s.inst] = append(byInst[s.inst], owner{s.req, interval{s.start, s.end}})
		}
	}
	for _, s := range spans {
		if s.layer != layerJournal {
			continue
		}
		var best *owner
		for i, o := range byInst[s.inst] {
			if o.iv.start <= s.start && s.end <= o.iv.end &&
				(best == nil || o.iv.end-o.iv.start < best.iv.end-best.iv.start) {
				best = &byInst[s.inst][i]
			}
		}
		if best != nil {
			r := m[best.req]
			r.journal = append(r.journal, s)
		}
	}
	return m
}

func intervals(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = interval{s.start, s.end}
	}
	return out
}
