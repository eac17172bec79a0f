package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/actionlib"
	grt "github.com/liquidpub/gelee/internal/runtime"
)

// resType is the resource type of every benchmark instance. No plug-in
// serves it, so instantiation checks only the reference's shape.
const resType = "benchres"

// actionURI is the one REST action every action-loop phase carries.
const actionURI = "urn:bench:action:notify"

// inst is the benchmark's view of one lifecycle instance: what the
// acknowledged operations imply its state must be.
type inst struct {
	mu       sync.Mutex // serialises the benchmark's advances of this instance
	id       string
	model    int
	owner    string
	resource string
	phase    string       // current phase implied by acknowledged advances
	events   atomic.Int64 // event count implied by acknowledged operations
	seedEvs  int64        // event count when set-up finished
}

// env is one running system under test: the System, its listener, the
// action service and the benchmark's expectations of its state.
type env struct {
	w      *workload
	dir    string
	opts   gelee.Options
	sys    *gelee.System
	ln     net.Listener
	srv    *http.Server
	served chan struct{}
	base   string
	tr     *tracer // nil in untraced runs
	acts   *actionService
	models []string
	owners []string
	insts  []*inst // the seeded population, by logical index

	createdMu sync.Mutex
	created   []*inst
	newRes    atomic.Int64
}

func (e *env) population() int {
	e.createdMu.Lock()
	defer e.createdMu.Unlock()
	return len(e.insts) + len(e.created)
}

func (e *env) options() gelee.Options {
	w := e.w
	opts := gelee.Options{
		DataDir:          e.dir,
		Engine:           "journal",
		SyncJournal:      w.sync,
		PersistInstances: true,
		Auth:             w.auth,
		EmbeddedPlugins:  true,
		// geleed's flag defaults.
		SegmentMaxBytes: 64 << 20,
		FoldMinInterval: 15 * time.Second,
		FoldMinGarbage:  0.25,
		Integrity:       gelee.IntegrityOptions{ScrubInterval: 5 * time.Minute},
		Resilience: gelee.ResilienceOptions{
			MaxQueueDepth: 512,
			ProbeInterval: time.Second,
		},
	}
	if e.tr != nil {
		tr := e.tr
		opts.Resilience.WrapJournal = func(j grt.Journal) grt.Journal { return timedJournal{inner: j, t: tr} }
	}
	return opts
}

// startEnv builds and seeds a System in dir and starts serving it; the
// time it takes is one set-up sample. pre is the benchmark's instance
// table, allocated before the System so that it stays out of the
// heap-per-instance figure.
func startEnv(w *workload, dir string, seed int64, tr *tracer, acts *actionService, pre []*inst) (*env, error) {
	e := &env{w: w, dir: dir, tr: tr, acts: acts, insts: pre}
	e.opts = e.options()
	// A SyncJournal System is seeded without fsync and then reopened
	// with it: seeding would otherwise wait on tens of thousands of
	// fsyncs, and the kernel and scheduler CPU each one costs grows
	// with the host's fsync latency.
	seedOpts := e.opts
	seedOpts.SyncJournal = false
	sys, err := gelee.New(seedOpts)
	if err != nil {
		return nil, fmt.Errorf("gelee.New: %w", err)
	}
	e.sys = sys
	if err := e.seed(seed); err != nil {
		e.close()
		return nil, err
	}
	// Fold the seeding's journal segments now, so that no background
	// fold of the set-up's history overlaps the measured phases.
	if err := sys.Compact(); err != nil {
		e.close()
		return nil, fmt.Errorf("compact after seeding: %w", err)
	}
	if e.opts.SyncJournal {
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("close after seeding: %w", err)
		}
		if e.sys, err = gelee.New(e.opts); err != nil {
			return nil, fmt.Errorf("reopen with SyncJournal: %w", err)
		}
	}
	if err := e.listen(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = e.sys.HTTPHandler()
	if e.tr != nil {
		h = e.tr.handler(h, e.sys, e.w.auth)
	}
	e.ln = ln
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	// Ready means a request is answered.
	resp, err := http.Get(e.base + "/api/v1/ping")
	if err != nil {
		return fmt.Errorf("listener not answering: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ping: status %d", resp.StatusCode)
	}
	if e.acts != nil {
		e.acts.setTarget(e.base)
	}
	return nil
}

// stopServing shuts the listener down and waits for its goroutine.
func (e *env) stopServing() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	<-e.served
	e.srv = nil
}

func (e *env) close() error {
	e.stopServing()
	if e.sys == nil {
		return nil
	}
	err := e.sys.Close()
	e.sys = nil
	return err
}

// seed defines the workload's models, users and actions and creates the
// population through the facade.
func (e *env) seed(seed int64) error {
	w := e.w
	sys := e.sys
	if err := sys.AddUser(gelee.User{Name: "bench-admin", Admin: true}); err != nil {
		return err
	}
	for i := 0; i < w.owners; i++ {
		name := fmt.Sprintf("owner-%d", i)
		if err := sys.AddUser(gelee.User{Name: name}); err != nil {
			return err
		}
		e.owners = append(e.owners, name)
	}
	if w.actions {
		at := actionlib.ActionType{URI: actionURI, Name: "notify"}
		impl := actionlib.Implementation{ResourceType: resType, Endpoint: e.acts.url, Protocol: actionlib.ProtocolREST}
		if err := sys.RegisterAction("bench-admin", at, impl); err != nil {
			return fmt.Errorf("register action: %w", err)
		}
	}
	for m := 0; m < w.models; m++ {
		model := w.model(m)
		if err := sys.DefineModel("", model); err != nil {
			return fmt.Errorf("define %s: %w", model.URI, err)
		}
		e.models = append(e.models, model.URI)
	}

	// Instances are created by several goroutines so that durable
	// seeding rides group commit; creation order (and so the ids) then
	// varies between runs, while the logical population — resource,
	// model, owner and steps of each index — depends on the seed alone.
	n := len(e.insts)
	steps := make([]int, n)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(w.models-1))
	for i, in := range e.insts {
		in.resource = fmt.Sprintf("urn:bench:r-%d", i)
		in.owner = e.owners[i%len(e.owners)]
		if w.zipfModels {
			in.model = int(zipf.Uint64())
		} else {
			in.model = rng.Intn(w.models)
		}
		if w.maxSeedSteps > 0 {
			steps[i] = rng.Intn(w.maxSeedSteps + 1)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, w.seeders)
	for g := 0; g < w.seeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w.seeders {
				if err := e.seedOne(e.insts[i], steps[i]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when no seeder failed
}

func (e *env) seedOne(in *inst, steps int) error {
	uri := e.models[in.model]
	snap, err := e.sys.Instantiate(uri, gelee.Ref{URI: in.resource, Type: resType}, in.owner, nil)
	if err != nil {
		return fmt.Errorf("seed instantiate: %w", err)
	}
	in.id = snap.ID
	if e.tr != nil {
		e.tr.noteResource(in.resource, in.id)
	}
	path := e.w.seedPath
	for s := 0; s < steps; s++ {
		res, err := e.sys.AdvanceSummary(snap.ID, path[s], in.owner, gelee.AdvanceOptions{})
		if err != nil {
			return fmt.Errorf("seed advance: %w", err)
		}
		in.phase = res.Summary.Current
	}
	sum, ok := e.sys.InstanceSummary(snap.ID)
	if !ok {
		return fmt.Errorf("seeded instance %s missing", snap.ID)
	}
	in.seedEvs = int64(sum.Events)
	in.events.Store(in.seedEvs)
	return nil
}

// seqOf parses the creation seq out of a runtime instance id
// ("li-000123"); the cockpit checks use it to verify creation order.
func seqOf(id string) (int64, error) {
	i := strings.LastIndexByte(id, '-')
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil || i < 0 {
		return 0, fmt.Errorf("instance id %q has no seq", id)
	}
	return n, nil
}

// verify compares the System with what the acknowledged operations
// imply: the population size and every instance's phase and event
// count. It returns the mismatches.
func (e *env) verify() []string {
	var bad []string
	want := e.population()
	if got := e.sys.InstanceCount(); got != want {
		bad = append(bad, fmt.Sprintf("instance count %d, want %d (seeded + acknowledged instantiates)", got, want))
	}
	check := func(in *inst) {
		sum, ok := e.sys.InstanceSummary(in.id)
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s missing", in.id))
		case int64(sum.Events) != in.events.Load():
			bad = append(bad, fmt.Sprintf("%s has %d events, acknowledged operations imply %d", in.id, sum.Events, in.events.Load()))
		case sum.Current != in.phase:
			bad = append(bad, fmt.Sprintf("%s in phase %q, want %q", in.id, sum.Current, in.phase))
		}
	}
	for _, in := range e.insts {
		check(in)
	}
	e.createdMu.Lock()
	created := append([]*inst(nil), e.created...)
	e.createdMu.Unlock()
	for _, in := range created {
		check(in)
	}
	return bad
}

// stateImage is every instance's phase and event count, the recovery
// comparison's reference.
type stateImage map[string][2]string

func (e *env) image() stateImage {
	img := make(stateImage, e.population())
	e.sys.ForEachSummary(gelee.Filter{}, 0, func(s gelee.Summary) bool {
		img[s.ID] = [2]string{s.Current, strconv.Itoa(s.Events)}
		return true
	})
	return img
}

// recover closes the System and reopens it on the same data directory,
// timing gelee.New until the replayed System answers (wall and process
// CPU time, in s), and compares the recovered state with the image
// taken before the close.
func (e *env) recover() (wall, cpu float64, bad []string, err error) {
	before := e.image()
	if err := e.close(); err != nil {
		return 0, 0, nil, fmt.Errorf("close before recovery: %w", err)
	}
	opts := e.opts
	opts.Resilience.WrapJournal = nil
	// Collect the closed System first, so that every reopen starts from
	// the same heap and its replay meets the same GC schedule.
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	sys, err := gelee.New(opts)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("reopen: %w", err)
	}
	wall = time.Since(t0).Seconds()
	cpu = float64(cpuTime()-cpu0) / 1e9
	e.sys = sys
	after := e.image()
	if len(after) != len(before) {
		bad = append(bad, fmt.Sprintf("recovered %d instances, had %d", len(after), len(before)))
	}
	for id, b := range before {
		if a, ok := after[id]; !ok || a != b {
			bad = append(bad, fmt.Sprintf("%s recovered as %v, was %v", id, a, b))
		}
	}
	return wall, cpu, bad, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
