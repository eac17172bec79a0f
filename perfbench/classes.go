package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// client is one generator worker's connection: a keep-alive transport
// limited to a single connection, plus the timestamps of its last
// exchange.
type client struct {
	e      *env
	hc     *http.Client
	park   *parker
	req    uint64    // request id of the current exchange
	t0, t1 time.Time // request written / last response byte read
	body   bytes.Buffer
}

func newClient(e *env) (*client, error) {
	p, err := newParker()
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{e: e, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, park: p}, nil
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.park.close()
}

// call performs one exchange and reads the whole response into c.body.
// The span c.t0..c.t1 covers request write to last response byte.
func (c *client) call(method, path, user string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.e.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if user != "" {
		req.Header.Set("X-Gelee-User", user)
	}
	if c.e.tr != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(c.req, 10))
	}
	c.body.Reset()
	c.t0 = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t1 = time.Now()
		return 0, err
	}
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	c.t1 = time.Now()
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// expect performs the exchange and decodes a response of the given
// status into out.
func (c *client) expect(status int, method, path, user string, body []byte, out any) error {
	got, err := c.call(method, path, user, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if got != status {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, got, status, c.body.Bytes())
	}
	if err := json.Unmarshal(c.body.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// class is one kind of request: it picks its target from the arrival's
// random argument, performs the exchange and checks the response.
type class struct {
	name  string
	write bool
	run   func(c *client, a *arrival) error
}

// Wire shapes, decoded from the responses.
type (
	wireEvent struct {
		Seq        int    `json:"seq"`
		Kind       string `json:"kind"`
		Phase      string `json:"phase"`
		Invocation string `json:"invocation"`
	}
	wireInstance struct {
		ID       string      `json:"id"`
		ModelURI string      `json:"model_uri"`
		State    string      `json:"state"`
		Current  string      `json:"current"`
		Events   []wireEvent `json:"events"`
	}
	wirePage struct {
		Items []wireInstance `json:"items"`
		Total int            `json:"total"`
	}
	wireTimeline struct {
		Items []wireEvent `json:"items"`
		Total int         `json:"total"`
	}
)

const (
	pageLimit     = 50
	timelineLimit = 20
)

var classes = map[string]class{
	"noop":        {name: "noop", run: runNoop},
	"advance":     {name: "advance", write: true, run: runAdvance},
	"instantiate": {name: "instantiate", write: true, run: runInstantiate},
	"annotate":    {name: "annotate", write: true, run: runAnnotate},
	"page":        {name: "page", run: runPage},
	"timeline":    {name: "timeline", run: runTimeline("/api/v1/instances/%s/timeline")},
	"montimeline": {name: "montimeline", run: runTimeline("/api/v1/monitor/instances/%s/timeline")},
	"resource":    {name: "resource", run: runResource},
	"overview":    {name: "overview", run: runOverview},
	"model":       {name: "model", run: runModel},
	"modelpage":   {name: "modelpage", run: runModelPage},
	"latepage":    {name: "latepage", run: runLatePage},
	"summary":     {name: "summary", run: runSummary},
}

func (e *env) pick(arg uint64) *inst { return e.insts[arg%uint64(len(e.insts))] }

// cursor spreads a class's page cursors evenly over the seeded seq
// range: the k-th occurrence lands a golden-ratio step after the
// previous one, from the phase's random start, so every run pages the
// same spread of positions (a filtered page's cost depends on where it
// starts).
func (e *env) cursor(a *arrival) int64 {
	f := a.base + 0.6180339887498949*float64(a.k)
	f -= float64(int64(f))
	return int64(f * float64(len(e.insts)))
}

func runNoop(c *client, a *arrival) error {
	var out map[string]string
	if err := c.expect(http.StatusOK, "GET", "/api/v1/ping", "", nil, &out); err != nil {
		return err
	}
	if out["gelee"] != "ok" {
		return fmt.Errorf("ping answered %v", out)
	}
	return nil
}

// nextPhase is the advance target: into work from BEGIN, then cycling
// work ⇄ check.
func nextPhase(cur string) string {
	if cur == "work" {
		return "check"
	}
	return "work"
}

func runAdvance(c *client, a *arrival) error {
	in := c.e.pick(a.arg)
	in.mu.Lock()
	defer in.mu.Unlock()
	to := nextPhase(in.phase)
	var out wireInstance
	body := []byte(`{"to":"` + to + `"}`)
	if err := c.expect(http.StatusOK, "POST", "/api/v1/instances/"+in.id+"/advance", in.owner, body, &out); err != nil {
		return err
	}
	if out.ID != in.id || out.Current != to {
		return fmt.Errorf("advance %s to %s answered %s in %q", in.id, to, out.ID, out.Current)
	}
	entered, started := 0, []string(nil)
	for _, ev := range out.Events {
		switch ev.Kind {
		case "phase-entered":
			if ev.Phase == to {
				entered++
			}
		case "action-started":
			started = append(started, ev.Invocation)
		}
	}
	wantActions := 0
	if c.e.w.actions {
		wantActions = 1
	}
	if entered != 1 || len(started) != wantActions || len(out.Events) != 1+wantActions {
		return fmt.Errorf("advance %s to %s appended %d events (%d phase entries, %d actions), want 1 entry and %d actions",
			in.id, to, len(out.Events), entered, len(started), wantActions)
	}
	in.phase = to
	// Each started action adds its completed status once the action
	// service's callback lands.
	in.events.Add(int64(1 + 2*len(started)))
	for _, inv := range started {
		if err := c.e.acts.expect(inv, a.due, a.open, c.req); err != nil {
			return err
		}
	}
	return nil
}

func runInstantiate(c *client, a *arrival) error {
	e := c.e
	model := int(a.arg % uint64(len(e.models)))
	owner := e.owners[int(a.arg>>32)%len(e.owners)]
	res := fmt.Sprintf("urn:bench:new-%d", e.newRes.Add(1))
	body, _ := json.Marshal(map[string]any{
		"model_uri": e.models[model],
		"resource":  map[string]string{"uri": res, "type": resType},
		"owner":     owner,
	})
	var out wireInstance
	if err := c.expect(http.StatusCreated, "POST", "/api/v1/instances", owner, body, &out); err != nil {
		return err
	}
	if out.ModelURI != e.models[model] || out.Current != "" || out.State != "active" ||
		len(out.Events) != 1 || out.Events[0].Kind != "created" {
		return fmt.Errorf("instantiate of %s answered %+v", e.models[model], out)
	}
	in := &inst{id: out.ID, model: model, owner: owner, resource: res, seedEvs: 1}
	if e.tr != nil {
		e.tr.noteResource(res, in.id)
	}
	in.events.Store(1)
	e.createdMu.Lock()
	e.created = append(e.created, in)
	e.createdMu.Unlock()
	return nil
}

func runAnnotate(c *client, a *arrival) error {
	in := c.e.pick(a.arg)
	var out map[string]string
	if err := c.expect(http.StatusOK, "POST", "/api/v1/instances/"+in.id+"/annotations", in.owner, []byte(`{"note":"checked by perfbench"}`), &out); err != nil {
		return err
	}
	if out["annotated"] != in.id {
		return fmt.Errorf("annotate %s answered %v", in.id, out)
	}
	in.events.Add(1)
	return nil
}

// checkPage verifies a cockpit page: at most limit items, in ascending
// creation order, all past the cursor.
func checkPage(p *wirePage, after int64, limit int) error {
	if len(p.Items) > limit {
		return fmt.Errorf("page of %d items exceeds limit %d", len(p.Items), limit)
	}
	prev := after
	for _, it := range p.Items {
		seq, err := seqOf(it.ID)
		if err != nil {
			return err
		}
		if seq <= prev {
			return fmt.Errorf("page after %d out of creation order: %d after %d", after, seq, prev)
		}
		prev = seq
	}
	return nil
}

func runPage(c *client, a *arrival) error {
	e := c.e
	n := int64(len(e.insts))
	after := e.cursor(a)
	var p wirePage
	if err := c.expect(http.StatusOK, "GET", fmt.Sprintf("/api/v1/instances?after=%d&limit=%d", after, pageLimit), "", nil, &p); err != nil {
		return err
	}
	if err := checkPage(&p, after, pageLimit); err != nil {
		return err
	}
	// Seeded seqs are 1..n, so at least min(limit, n-after) exist.
	if want := min(int64(pageLimit), n-after); int64(len(p.Items)) < want {
		return fmt.Errorf("page after %d has %d items, want at least %d", after, len(p.Items), want)
	}
	if p.Total < int(n) {
		return fmt.Errorf("page total %d below seeded population %d", p.Total, n)
	}
	return nil
}

func runTimeline(pattern string) func(c *client, a *arrival) error {
	return func(c *client, a *arrival) error {
		in := c.e.pick(a.arg)
		var t wireTimeline
		path := fmt.Sprintf(pattern, in.id) + fmt.Sprintf("?limit=%d", timelineLimit)
		if err := c.expect(http.StatusOK, "GET", path, "", nil, &t); err != nil {
			return err
		}
		if int64(t.Total) < in.seedEvs {
			return fmt.Errorf("timeline of %s totals %d events, set-up left %d", in.id, t.Total, in.seedEvs)
		}
		if len(t.Items) != min(timelineLimit, t.Total) {
			return fmt.Errorf("timeline of %s has %d items of %d", in.id, len(t.Items), t.Total)
		}
		for i, ev := range t.Items {
			if ev.Seq != i+1 {
				return fmt.Errorf("timeline of %s: item %d has seq %d", in.id, i, ev.Seq)
			}
		}
		return nil
	}
}

func runResource(c *client, a *arrival) error {
	in := c.e.pick(a.arg)
	var p wirePage
	path := "/api/v1/instances?limit=50&resource=" + url.QueryEscape(in.resource)
	if err := c.expect(http.StatusOK, "GET", path, "", nil, &p); err != nil {
		return err
	}
	if len(p.Items) != 1 || p.Items[0].ID != in.id {
		return fmt.Errorf("resource %s matched %d instances, want exactly %s", in.resource, len(p.Items), in.id)
	}
	return nil
}

func runOverview(c *client, a *arrival) error {
	in := c.e.pick(a.arg)
	var rows []struct {
		InstanceID  string `json:"instance_id"`
		ResourceURI string `json:"resource_uri"`
	}
	if err := c.expect(http.StatusOK, "GET", "/api/v1/monitor/overview?resource="+url.QueryEscape(in.resource), "", nil, &rows); err != nil {
		return err
	}
	if len(rows) != 1 || rows[0].InstanceID != in.id || rows[0].ResourceURI != in.resource {
		return fmt.Errorf("overview of %s returned %d rows, want exactly %s", in.resource, len(rows), in.id)
	}
	return nil
}

func runModel(c *client, a *arrival) error {
	e := c.e
	uri := e.models[a.arg%uint64(len(e.models))]
	var m struct{ URI string }
	if err := c.expect(http.StatusOK, "GET", "/api/v1/models/"+url.PathEscape(uri), "", nil, &m); err != nil {
		return err
	}
	if m.URI != uri {
		return fmt.Errorf("model GET %s returned %q", uri, m.URI)
	}
	return nil
}

func runModelPage(c *client, a *arrival) error {
	e := c.e
	// Models take turns, so every run pages each model equally often.
	uri := e.models[a.k%len(e.models)]
	after := e.cursor(a)
	var p wirePage
	path := fmt.Sprintf("/api/v1/instances?model=%s&limit=%d&after=%d", url.QueryEscape(uri), pageLimit, after)
	if err := c.expect(http.StatusOK, "GET", path, "", nil, &p); err != nil {
		return err
	}
	if err := checkPage(&p, after, pageLimit); err != nil {
		return err
	}
	for _, it := range p.Items {
		if it.ModelURI != uri {
			return fmt.Errorf("model page of %s holds %s of %s", uri, it.ID, it.ModelURI)
		}
	}
	return nil
}

func runLatePage(c *client, a *arrival) error {
	e := c.e
	after := e.cursor(a)
	var p wirePage
	path := fmt.Sprintf("/api/v1/instances?state=active&late=1&limit=%d&after=%d", pageLimit, after)
	if err := c.expect(http.StatusOK, "GET", path, "", nil, &p); err != nil {
		return err
	}
	if err := checkPage(&p, after, pageLimit); err != nil {
		return err
	}
	now := time.Now()
	for _, it := range p.Items {
		sum, ok := e.sys.InstanceSummary(it.ID)
		if it.State != "active" || !ok || !sum.Late(now) {
			return fmt.Errorf("late page holds %s (state %s), which is not late", it.ID, it.State)
		}
	}
	return nil
}

func runSummary(c *client, a *arrival) error {
	var s struct {
		Total  int `json:"total"`
		Active int `json:"active"`
	}
	if err := c.expect(http.StatusOK, "GET", "/api/v1/monitor/summary", "", nil, &s); err != nil {
		return err
	}
	if s.Total < len(c.e.insts) || s.Active > s.Total {
		return fmt.Errorf("summary counts %d instances (%d active), seeded %d", s.Total, s.Active, len(c.e.insts))
	}
	return nil
}
