package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/scenario"
)

// rawGet issues a GET and returns status, headers and body.
func rawGet(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestStructuredErrorsEveryRoute drives one failing request through
// every fallible route and asserts the uniform error body: JSON with
// a stable code and a message, no other keys beyond the documented
// optional ones, and no Deprecation header. Routes with no failing
// input (ping, the bare list/browse/summary/health reads) have nothing
// to assert; POST /soap answers with SOAP faults by protocol, not JSON.
func TestStructuredErrorsEveryRoute(t *testing.T) {
	e := newEnv(t, true) // auth on: missing X-Gelee-User is the uniform 401
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int // 0 = any 4xx/5xx
	}{
		{"define model unauthorized", "POST", "/api/v1/models", "<model/>", 401},
		// The removed query-param route is now just a model named "one".
		{"model by query missing", "GET", "/api/v1/models/one?uri=urn:ghost", "", 404},
		{"model by path missing", "GET", "/api/v1/models/" + url.PathEscape("urn:ghost"), "", 404},
		{"propagate unauthorized", "POST", "/api/v1/models/propagate", "{}", 401},
		{"register action unauthorized", "POST", "/api/v1/actions", "{}", 401},
		{"instances bad state filter", "GET", "/api/v1/instances?state=bogus", "", 400},
		{"instances bad late filter", "GET", "/api/v1/instances?late=maybe", "", 400},
		{"instances bad cursor", "GET", "/api/v1/instances?after=x", "", 400},
		{"instantiate unauthorized", "POST", "/api/v1/instances", "{}", 401},
		{"instance missing", "GET", "/api/v1/instances/ghost", "", 404},
		{"instance timeline missing", "GET", "/api/v1/instances/ghost/timeline", "", 0},
		{"advance unauthorized", "POST", "/api/v1/instances/ghost/advance", "{}", 401},
		{"annotate unauthorized", "POST", "/api/v1/instances/ghost/annotations", "{}", 401},
		{"bind unauthorized", "POST", "/api/v1/instances/ghost/bindings", "{}", 401},
		{"migrate unauthorized", "POST", "/api/v1/instances/ghost/migrate", "{}", 401},
		{"callback bad body", "POST", "/api/v1/callbacks/ghost", "not json", 400},
		{"admin store unauthorized", "GET", "/api/v1/admin/store", "", 401},
		{"admin runtime unauthorized", "GET", "/api/v1/admin/runtime", "", 401},
		{"admin log unauthorized", "GET", "/api/v1/admin/log", "", 401},
		{"admin alerts unauthorized", "GET", "/api/v1/admin/alerts", "", 401},
		{"admin alert stream unauthorized", "GET", "/api/v1/admin/alerts/stream", "", 401},
		{"monitor overview bad filter", "GET", "/api/v1/monitor/overview?late=x", "", 400},
		{"monitor late bad filter", "GET", "/api/v1/monitor/late?state=bogus", "", 400},
		{"monitor timeline missing", "GET", "/api/v1/monitor/instances/ghost/timeline", "", 404},
		{"widget html missing", "GET", "/widgets/ghost", "", 0},
		{"widget json missing", "GET", "/widgets/ghost/json", "", 0},
		{"widget feed missing", "GET", "/widgets/ghost/feed", "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, e.srv.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if tc.want != 0 && resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			if resp.StatusCode < 400 {
				t.Fatalf("status = %d, want an error (%s)", resp.StatusCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error content type = %q, body %s", ct, data)
			}
			if d := resp.Header.Get("Deprecation"); d != "" {
				t.Fatalf("error response carries Deprecation: %q", d)
			}
			var apiErr map[string]any
			if err := json.Unmarshal(data, &apiErr); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, data)
			}
			code, _ := apiErr["code"].(string)
			if msg, _ := apiErr["message"].(string); code == "" || msg == "" {
				t.Fatalf("error body missing code/message: %s", data)
			}
			if tc.want == 404 && code != "not_found" {
				t.Fatalf("404 code = %q, want not_found", code)
			}
			for k := range apiErr {
				switch k {
				case "code", "message", "retry_after_ms", "mode":
				default:
					t.Fatalf("error body carries unexpected key %q: %s", k, data)
				}
			}
		})
	}
}

// TestModelByPathRoute: models are addressed by path-escaped URI; the
// old query-parameter form is just a lookup of a model named "one".
func TestModelByPathRoute(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}

	code, hdr, body := rawGet(t, e.srv.URL, "/api/v1/models/"+url.PathEscape(model.URI))
	if code != 200 {
		t.Fatalf("GET by path = %d: %s", code, body)
	}
	if hdr.Get("Deprecation") != "" {
		t.Fatal("path route must not be marked deprecated")
	}
	var view map[string]any
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view["URI"] != model.URI {
		t.Fatalf("path route returned %v", view["URI"])
	}

	// XML round-trip works on the path route too.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/models/"+url.PathEscape(model.URI)+"?format=xml")
	if code != 200 || !bytes.Contains(body, []byte("<")) {
		t.Fatalf("XML by path = %d: %s", code, body)
	}

	// The removed query route answers the structured 404.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/models/one?uri="+url.QueryEscape(model.URI))
	if code != 404 || !bytes.Contains(body, []byte(`"code":"not_found"`)) {
		t.Fatalf("GET models/one = %d: %s", code, body)
	}
}

// TestInstancesEnvelopeAndFilters: GET /instances answers the uniform
// {items,total,next_after} envelope, and the filter params are pushed
// down to the runtime indexes.
func TestInstancesEnvelopeAndFilters(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	e.sys.Sims.GDocs.Create("D2.1", "Requirements", "owner", "draft")
	for i := 0; i < 4; i++ {
		if _, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://docs.liquidpub.org/docs/D2.1", Type: "gdoc"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}

	type page struct {
		Items     []instanceJSON `json:"items"`
		Total     int            `json:"total"`
		NextAfter int64          `json:"next_after"`
	}

	// Resource filter rides the by-resource index: match count as total.
	code, _, body := rawGet(t, e.srv.URL, "/api/v1/instances?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered list = %d: %s", code, body)
	}
	var p page
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 4 || p.Total != 4 {
		t.Fatalf("resource filter: %d items, total %d, want 4/4", len(p.Items), p.Total)
	}

	// Filters compose with paging: walk the gdoc matches two at a time.
	var walked int
	after := int64(0)
	for {
		code, _, body := rawGet(t, e.srv.URL,
			fmt.Sprintf("/api/v1/instances?resource=%s&after=%d&limit=2",
				url.QueryEscape("http://docs.liquidpub.org/docs/D2.1"), after))
		if code != 200 {
			t.Fatalf("filtered page = %d", code)
		}
		var fp page
		if err := json.Unmarshal(body, &fp); err != nil {
			t.Fatal(err)
		}
		walked += len(fp.Items)
		if fp.NextAfter == 0 {
			break
		}
		after = fp.NextAfter
	}
	if walked != 3 {
		t.Fatalf("filtered walk saw %d instances, want 3", walked)
	}

	// Model + state filters: everything here is active.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/instances?model="+url.QueryEscape(model.URI)+"&state=active")
	if code != 200 {
		t.Fatalf("model filter = %d", code)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 7 {
		t.Fatalf("model+state filter: %d items, want 7", len(p.Items))
	}
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/instances?state=completed")
	if code != 200 {
		t.Fatalf("state filter = %d", code)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 0 {
		t.Fatalf("completed filter: %d items, want 0", len(p.Items))
	}

	// Monitor overview takes the same pushdown params.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/monitor/overview?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered overview = %d", code)
	}
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("filtered overview rows = %d, want 4", len(rows))
	}
	// No instance is late yet.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/monitor/late?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered late = %d", code)
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("late rows = %d, want 0", len(rows))
	}

	// The parameterless call answers the whole population enveloped.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/instances")
	if code != 200 {
		t.Fatalf("bare list = %d", code)
	}
	p = page{}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 7 || p.Total != 7 || p.NextAfter != 0 {
		t.Fatalf("bare list: %d items, total %d, next %d, want 7/7/0", len(p.Items), p.Total, p.NextAfter)
	}
}

// TestPagedRoutesFinalShape drives every cursor-paged route and checks
// the final envelope: items and total present, none of the removed
// alias keys, no Deprecation header — and the parameterless instance
// list answers exactly what ?after=0 does.
func TestPagedRoutesFinalShape(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	var id string
	for i := 0; i < 3; i++ {
		snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		id = snap.ID
	}
	if _, err := e.sys.Advance(id, "elaboration", "owner", gelee.AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}

	routes := []string{
		"/api/v1/instances",
		"/api/v1/instances?after=0",
		"/api/v1/instances?limit=2",
		"/api/v1/instances?resource=" + url.QueryEscape("http://wiki/D1.1"),
		"/api/v1/instances?state=active&limit=1",
		"/api/v1/instances/" + id + "/timeline",
		"/api/v1/instances/" + id + "/timeline?limit=1",
		"/api/v1/monitor/instances/" + id + "/timeline",
		"/api/v1/admin/log",
		"/api/v1/admin/log?limit=1",
	}
	for _, path := range routes {
		code, hdr, body := rawGet(t, e.srv.URL, path)
		if code != 200 {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		if d := hdr.Get("Deprecation"); d != "" {
			t.Fatalf("GET %s carries Deprecation: %q", path, d)
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("GET %s is not an envelope: %v (%s)", path, err, body)
		}
		var items []json.RawMessage
		if err := json.Unmarshal(env["items"], &items); err != nil || len(items) == 0 {
			t.Fatalf("GET %s: items = %s (%v)", path, env["items"], err)
		}
		if _, ok := env["total"]; !ok {
			t.Fatalf("GET %s has no total: %s", path, body)
		}
		for _, k := range []string{"instances", "entries", "next", "more", "error"} {
			if _, ok := env[k]; ok {
				t.Fatalf("GET %s carries removed key %q", path, k)
			}
		}
	}

	_, _, bare := rawGet(t, e.srv.URL, "/api/v1/instances")
	_, _, first := rawGet(t, e.srv.URL, "/api/v1/instances?after=0")
	if !bytes.Equal(bare, first) {
		t.Fatalf("parameterless list differs from ?after=0:\n%s\n%s", bare, first)
	}
}
