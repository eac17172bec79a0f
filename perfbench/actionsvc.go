package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee/internal/invoke"
)

// actionService is the REST action implementation every action-loop
// phase points at. It answers each invocation 200, records when it
// arrived, and reports the action completed through the System's
// callback route from a pool of at most nproc workers.
type actionService struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{}
	url    string
	target atomic.Value // base URL of the System for callbacks
	hc     *http.Client
	jobs   chan string
	wg     sync.WaitGroup
	tr     *tracer

	mu       sync.Mutex
	received map[string]time.Time // invocation id -> first receipt
	dups     int
	started  map[string]time.Time // invocation id -> due time of the advance that started it
	openInvs map[string]uint64    // started during the open-loop phase -> request id of the advance
	cbRTT    dist                 // callback round trips, ns
	acked    int
	cbFailed int
}

// jobQueue bounds callbacks waiting for a worker; it holds every
// invocation one run can start, so the action service never blocks the
// System's dispatch.
const jobQueue = 1 << 20

func newActionService(workers int, tr *tracer) (*actionService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &actionService{
		ln:       ln,
		url:      "http://" + ln.Addr().String() + "/act",
		served:   make(chan struct{}),
		jobs:     make(chan string, jobQueue),
		tr:       tr,
		received: make(map[string]time.Time),
		started:  make(map[string]time.Time),
		openInvs: make(map[string]uint64),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			DisableCompression:  true,
		}, Timeout: 30 * time.Second},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /act", s.handle)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.callbacks()
	}
	return s, nil
}

func (s *actionService) setTarget(base string) { s.target.Store(base) }

func (s *actionService) handle(w http.ResponseWriter, r *http.Request) {
	inv, err := invoke.DecodeInvocation(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	if _, seen := s.received[inv.ID]; seen {
		s.dups++
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		return
	}
	s.received[inv.ID] = now
	s.mu.Unlock()
	if s.tr != nil {
		s.tr.noteInvocation(inv.ID, inv.ResourceURI)
	}
	w.WriteHeader(http.StatusOK)
	s.jobs <- inv.ID
}

// cbSeq numbers callback requests in their own id range so that traced
// callback spans never collide with generator requests.
var cbSeq atomic.Uint64

func (s *actionService) callbacks() {
	defer s.wg.Done()
	for id := range s.jobs {
		body, _ := json.Marshal(invoke.WireStatus{InvocationID: id, Message: "completed"})
		req, err := http.NewRequest("POST", s.target.Load().(string)+"/api/v1/callbacks/"+id, bytes.NewReader(body))
		if err != nil {
			s.fail(id, err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if s.tr != nil {
			req.Header.Set(reqHeader, fmt.Sprint(1<<62+cbSeq.Add(1)))
		}
		t0 := time.Now()
		resp, err := s.hc.Do(req)
		if err != nil {
			s.fail(id, err)
			continue
		}
		var out map[string]string
		derr := json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtt := time.Since(t0)
		if resp.StatusCode != http.StatusOK || derr != nil || out["received"] != id {
			s.fail(id, fmt.Errorf("callback answered %d %v", resp.StatusCode, out))
			continue
		}
		s.mu.Lock()
		s.acked++
		s.cbRTT.add(float64(rtt))
		s.mu.Unlock()
	}
}

func (s *actionService) fail(id string, err error) {
	s.mu.Lock()
	s.cbFailed++
	n := s.cbFailed
	s.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: callback for %s failed: %v\n", id, err)
	}
}

// expect notes an invocation an acknowledged advance started.
func (s *actionService) expect(inv string, due time.Time, open bool, req uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.started[inv]; dup {
		return fmt.Errorf("invocation %s started twice", inv)
	}
	s.started[inv] = due
	if open {
		s.openInvs[inv] = req
	}
	return nil
}

// drain waits until every started invocation has been received and its
// callback acknowledged or failed, or until the timeout.
func (s *actionService) drain(timeout time.Duration) {
	stop := time.Now().Add(timeout)
	for time.Now().Before(stop) {
		s.mu.Lock()
		done := len(s.received) >= len(s.started) && s.acked+s.cbFailed >= len(s.received)
		s.mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// actionReport is what the action service saw.
type actionReport struct {
	started, received, acked, failed, dups, missing int
	latency                                         dist // open-loop advances: scheduled arrival to receipt, ns
	cbRTT                                           dist
	receipts                                        map[string]time.Time // open-loop invocations
	reqOf                                           map[string]uint64    // open-loop invocation -> advance request id
}

func (s *actionService) report() actionReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := actionReport{started: len(s.started), received: len(s.received), acked: s.acked, failed: s.cbFailed, dups: s.dups,
		receipts: make(map[string]time.Time), reqOf: make(map[string]uint64)}
	for inv, due := range s.started {
		got, ok := s.received[inv]
		if !ok {
			r.missing++
			continue
		}
		if req, open := s.openInvs[inv]; open {
			r.latency.add(float64(got.Sub(due)))
			r.receipts[inv] = got
			r.reqOf[inv] = req
		}
	}
	r.cbRTT.merge(&s.cbRTT)
	return r
}

// reset forgets the invocations of a previous set-up round.
func (s *actionService) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received = make(map[string]time.Time)
	s.started = make(map[string]time.Time)
	s.openInvs = make(map[string]uint64)
	s.cbRTT = dist{}
	s.acked, s.cbFailed, s.dups = 0, 0, 0
}

// close stops the listener and the callback workers and waits for them.
func (s *actionService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	close(s.jobs)
	s.wg.Wait()
	s.hc.CloseIdleConnections()
}
