package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/vclock"
)

// captureSink is an in-memory Journal: it keeps every record's encoded
// form in emit order, which for one instance is mutation order.
type captureSink struct {
	mu   sync.Mutex
	recs []capturedRec
	err  error       // when set, Record fails
	fail func() bool // when set and true, Record fails (called under mu)
}

type capturedRec struct {
	id   string
	data []byte
}

func (s *captureSink) Record(rec *JournalRecord) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.fail != nil && s.fail() {
		return errors.New("injected: write error")
	}
	s.recs = append(s.recs, capturedRec{id: rec.Instance, data: data})
	return nil
}

// replayInto feeds every captured record into a fresh runtime and
// finishes the recovery.
func (s *captureSink) replayInto(t testing.TB, rt *Runtime) RecoveryStats {
	t.Helper()
	s.mu.Lock()
	recs := append([]capturedRec(nil), s.recs...)
	s.mu.Unlock()
	for _, r := range recs {
		if err := rt.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	return rt.FinishRecovery()
}

// persistEnv is the journaling twin of env.
type persistEnv struct {
	env
	sink *captureSink
}

func newPersistEnv(t testing.TB) *persistEnv {
	t.Helper()
	sink := &captureSink{}
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{
		Registry:    testActions(t),
		Invoker:     inv,
		Clock:       clock,
		SyncActions: true,
		Journal:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	return &persistEnv{env: env{rt: rt, inv: inv, clock: clock}, sink: sink}
}

// recover builds a fresh runtime with the same config shape (optionally
// customized) and replays the captured journal into it.
func (e *persistEnv) recover(t testing.TB, mutate func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Registry:    testActions(t),
		Invoker:     e.inv,
		Clock:       e.clock,
		SyncActions: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.sink.replayInto(t, rt2)
	return rt2
}

// mustJSON marshals for deep comparison; Snapshot keeps its model out
// of JSON, so models are compared separately by fingerprint.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertSameState compares the full observable state of two runtimes
// through viewOf: snapshots (histories, executions, pending changes,
// bindings) with their models, summaries, phase stats, in-flight
// counts, index-backed queries, page order and index sizes.
func assertSameState(t testing.TB, want, got *Runtime) {
	t.Helper()
	assertView(t, "replay", viewOf(t, want), viewOf(t, got))
}

// viewOf renders every read view of a runtime as one comparable text:
// full snapshots with their models, and per instance in creation order
// the Summary, PhaseStats at a fixed instant, InFlight and the
// ByResource/ByModelURI ids; then the instance order of a paged walk
// and the index sizes of RuntimeStats. Persistence counters differ by
// design and are left out.
func viewOf(t testing.TB, rt *Runtime) string {
	t.Helper()
	var b strings.Builder
	at := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	ids := func(list []Snapshot) (out []string) {
		for _, s := range list {
			out = append(out, s.ID)
		}
		return out
	}
	for _, snap := range rt.Instances() {
		sum, _ := rt.Summary(snap.ID)
		ps, _ := rt.PhaseStats(snap.ID, at)
		fmt.Fprintf(&b, "%s\nmodel %s\n%s\n%s\nin-flight %d\nby-resource %v\nby-model %v\n",
			mustJSON(t, snap), mustJSON(t, snap.Model), mustJSON(t, sum), mustJSON(t, ps), rt.InFlight(snap.ID),
			ids(rt.ByResource(snap.Resource.URI)), ids(rt.ByModelURI(snap.ModelURI)))
	}
	for after := int64(0); ; {
		page := rt.SummariesPage(after, 2)
		for _, s := range page.Summaries {
			fmt.Fprintf(&b, "page %s\n", s.ID)
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	st := rt.RuntimeStats()
	fmt.Fprintf(&b, "stats instances=%d per-shard=%v invocations=%d resources=%d models=%d events=%d truncated=%d\n",
		st.Instances, st.PerShard, st.Invocations, st.ResourceKeys, st.ModelKeys, st.EventsInMemory, st.EventsTruncated)
	return b.String()
}

// assertView fails showing both views around their first difference.
func assertView(t testing.TB, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	window := func(s string) string {
		return s[max(0, i-160):min(len(s), i+160)]
	}
	t.Fatalf("%s diverged at byte %d:\nlive      …%s…\nrecovered …%s…", what, i, window(want), window(got))
}

// TestReplayRebuildsEveryMutationKind drives every mutating verb and
// expects a journal replay to rebuild byte-identical observable state:
// token positions, histories, executions, pending changes, counters,
// indexes.
func TestReplayRebuildsEveryMutationKind(t *testing.T) {
	e := newPersistEnv(t)
	owner := "owner"

	// Instance A: full happy path with actions, annotations, bindings.
	a := e.instantiate(t)
	if err := e.rt.BindParams(a.ID, owner, "http://www.liquidpub.org/a/chr", map[string]string{"mode": "open"}); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"elaboration", "internalreview", "finalassembly"} {
		if _, err := e.rt.Advance(a.ID, phase, owner, AdvanceOptions{Annotation: "to " + phase}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.rt.Annotate(a.ID, owner, "waiting on partner"); err != nil {
		t.Fatal(err)
	}

	// Instance B: deviation, completion, reopening.
	b := e.instantiate(t)
	if _, err := e.rt.Advance(b.ID, "publication", owner, AdvanceOptions{
		Annotation:   "deadline deviation",
		CallBindings: map[string]map[string]string{"http://www.liquidpub.org/a/post": {"site": "example.org"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "accepted", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "elaboration", owner, AdvanceOptions{Annotation: "reopen"}); err != nil {
		t.Fatal(err)
	}

	// Instance C: pending proposal left undecided.
	c := e.instantiate(t)
	v2 := fig1(t)
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	if err := e.rt.ProposeChange(c.ID, "designer", v2, "v2 with archival"); err != nil {
		t.Fatal(err)
	}

	// Instance D: proposal accepted with a landing, then a second
	// proposal rejected, then an owner-initiated model switch.
	d := e.instantiate(t)
	if _, err := e.rt.Advance(d.ID, "elaboration", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.ProposeChange(d.ID, "designer", v2, "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.AcceptChange(d.ID, owner, "archival"); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.ProposeChange(d.ID, "designer", fig1(t), "back to v1"); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.RejectChange(d.ID, owner, "not now"); err != nil {
		t.Fatal(err)
	}
	other, err := core.NewModel("urn:gelee:models:other", "Other lifecycle").
		Phase("draft", "Draft").
		FinalPhase("done", "Done").
		Initial("draft").Transition("draft", "done").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.SwitchModel(d.ID, owner, other, "draft"); err != nil {
		t.Fatal(err)
	}

	rt2 := e.recover(t, nil)
	assertSameState(t, e.rt, rt2)

	// Pending proposal survives and is decidable after recovery.
	if snap, _ := rt2.Instance(c.ID); snap.Pending == nil {
		t.Fatal("pending proposal lost in replay")
	}
	if _, err := rt2.AcceptChange(c.ID, owner, ""); err != nil {
		t.Fatal(err)
	}

	// Fresh ids after recovery never collide with replayed ones.
	fresh, err := rt2.Instantiate(fig1(t), wikiRef(), owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Snapshot{a, b, c, d} {
		if fresh.ID == s.ID {
			t.Fatalf("recovered runtime reissued id %s", fresh.ID)
		}
	}
	if _, err := rt2.Advance(fresh.ID, "elaboration", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGaplessSeqsAndPhaseStats checks per-instance event seqs
// survive replay gapless and the incremental phase stats rebuild.
func TestReplayGaplessSeqsAndPhaseStats(t *testing.T) {
	e := newPersistEnv(t)
	snap := e.instantiate(t)
	e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	e.clock.Advance(48 * time.Hour)
	e.rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{})
	e.clock.Advance(24 * time.Hour)
	e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	e.clock.Advance(12 * time.Hour)

	rt2 := e.recover(t, nil)
	page, ok := rt2.Events(snap.ID, 0, 0)
	if !ok {
		t.Fatal("instance missing after replay")
	}
	for i, ev := range page.Events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (gap)", i, ev.Seq)
		}
	}
	now := e.clock.Now()
	want, _ := e.rt.PhaseStats(snap.ID, now)
	got, ok := rt2.PhaseStats(snap.ID, now)
	if !ok || !reflect.DeepEqual(want, got) {
		t.Fatalf("phase stats diverged: live %v recovered %v", want, got)
	}
	if got["elaboration"].Entered != 2 || got["elaboration"].Residence != 60*time.Hour {
		t.Fatalf("elaboration stats = %+v", got["elaboration"])
	}
	if got["internalreview"].Entered != 1 || got["internalreview"].Residence != 24*time.Hour {
		t.Fatalf("internalreview stats = %+v", got["internalreview"])
	}
}

// TestReplayPendingInvocationRoutable: an invocation that was still
// in flight at the crash is routable after recovery — its callback
// lands on the recovered instance and completes it.
func TestReplayPendingInvocationRoutable(t *testing.T) {
	sink := &captureSink{}
	swallow := InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }) // dispatch succeeds, never reports
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{Registry: testActions(t), Invoker: swallow, Clock: clock, SyncActions: true, Journal: sink})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rt.InFlight(snap.ID); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	live, _ := rt.Instance(snap.ID)

	rt2, err := New(Config{Registry: testActions(t), Invoker: swallow, Clock: clock, SyncActions: true})
	if err != nil {
		t.Fatal(err)
	}
	sink.replayInto(t, rt2)
	if got := rt2.InFlight(snap.ID); got != 2 {
		t.Fatalf("recovered in flight = %d, want 2", got)
	}
	sum, _ := rt2.Summary(snap.ID)
	if sum.PendingInvocations != 2 {
		t.Fatalf("recovered pending counter = %d, want 2", sum.PendingInvocations)
	}
	// The late callback routes through the rebuilt invocation index.
	for _, ex := range live.Executions {
		if err := rt2.Report(actionlib.StatusUpdate{InvocationID: ex.InvocationID, Message: actionlib.StatusCompleted}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt2.InFlight(snap.ID); got != 0 {
		t.Fatalf("in flight after callbacks = %d", got)
	}
}

// TestReplayDispatchFailure: a failed dispatch is journaled and the
// failed-step counter rebuilds.
func TestReplayDispatchFailure(t *testing.T) {
	e := newPersistEnv(t)
	e.inv.fail = map[string]bool{"http://www.liquidpub.org/a/pdf": true}
	snap := e.instantiate(t)
	if _, err := e.rt.Advance(snap.ID, "finalassembly", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	e.rt.WaitDispatch()
	rt2 := e.recover(t, nil)
	assertSameState(t, e.rt, rt2)
	sum, _ := rt2.Summary(snap.ID)
	if sum.FailedSteps != 1 {
		t.Fatalf("recovered failed steps = %d, want 1", sum.FailedSteps)
	}
}

// TestReplayWithRingTruncation: the recovered runtime applies its own
// MaxEventsInMemory while replaying, and the counters still match the
// live runtime's (truncation never changes aggregates).
func TestReplayWithRingTruncation(t *testing.T) {
	sink := &captureSink{}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	mk := func(j Journal) *Runtime {
		rt, err := New(Config{Registry: testActions(t), Clock: clock, SyncActions: true,
			MaxEventsInMemory: 16, Journal: j,
			Invoker: InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil })})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := mk(sink)
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	for i := 0; i < 60; i++ {
		if err := rt.Annotate(snap.ID, "owner", fmt.Sprintf("note %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rt2 := mk(nil)
	sink.replayInto(t, rt2)
	assertSameState(t, rt, rt2)
	want, _ := rt.Events(snap.ID, 0, 0)
	got, ok := rt2.Events(snap.ID, 0, 0)
	if !ok {
		t.Fatal("instance missing")
	}
	if want.Total != got.Total || want.OldestSeq != got.OldestSeq || len(want.Events) != len(got.Events) {
		t.Fatalf("pages diverged: live %+v recovered %+v", want, got)
	}
	if got.OldestSeq <= 1 {
		t.Fatal("test did not exercise truncation")
	}
}

// TestJournalFailureSemantics: a failed append means the mutation did
// not happen. Instantiate aborts cleanly, a refused move leaves the
// instance exactly as it was (position, events, summary), a refused
// callback can be retried once the disk heals and the retry is
// journaled, and a snapshot fold after a refused move does not carry
// it. Every failure is counted.
func TestJournalFailureSemantics(t *testing.T) {
	sink := &captureSink{}
	swallow := InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }) // dispatch succeeds, never reports
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	cfg := Config{Registry: testActions(t), Invoker: swallow, Clock: clock, SyncActions: true}
	mk := func(j Journal) *Runtime {
		c := cfg
		c.Journal = j
		rt, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := mk(sink)
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "alice"}})
	if err != nil {
		t.Fatal(err)
	}

	sink.err = errors.New("disk gone")
	if _, err := rt.Instantiate(fig1(t), wikiRef(), "owner", nil); !errors.Is(err, ErrJournal) {
		t.Fatalf("instantiate with dead journal = %v, want ErrJournal", err)
	}
	if got := rt.Count(); got != 1 {
		t.Fatalf("population after aborted instantiate = %d, want 1", got)
	}
	before, _ := rt.Instance(snap.ID)
	beforeSum, _ := rt.Summary(snap.ID)
	if _, err := rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); !errors.Is(err, ErrJournal) {
		t.Fatalf("advance with dead journal = %v, want ErrJournal", err)
	}
	// The refused move did not happen: position, events and summary
	// are unchanged.
	after, _ := rt.Instance(snap.ID)
	afterSum, _ := rt.Summary(snap.ID)
	if after.Current != "" || mustJSON(t, after) != mustJSON(t, before) || mustJSON(t, afterSum) != mustJSON(t, beforeSum) {
		t.Fatalf("refused advance changed the instance:\nbefore %s\nafter  %s", mustJSON(t, before), mustJSON(t, after))
	}

	// A fold after the refused move: the image replays to the
	// acknowledged state, without the move.
	img := mk(nil)
	for _, r := range emitAll(t, rt) {
		if err := img.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	img.FinishRecovery()
	if sum, _ := img.Summary(snap.ID); sum.Current != "" || sum.Events != beforeSum.Events {
		t.Fatalf("snapshot image carries the refused move: current=%q events=%d", sum.Current, sum.Events)
	}
	assertSameState(t, rt, img)

	// A callback refused by the journal leaves its execution pending;
	// once the disk heals the retried callback is journaled and survives
	// replay.
	sink.err = nil
	if _, err := rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	inv := func() string { s, _ := rt.Instance(snap.ID); return s.Executions[0].InvocationID }()
	pending, _ := rt.Summary(snap.ID)
	sink.err = errors.New("disk gone")
	up := actionlib.StatusUpdate{InvocationID: inv, Message: actionlib.StatusCompleted}
	if err := rt.Report(up); !errors.Is(err, ErrJournal) {
		t.Fatalf("report with dead journal = %v, want ErrJournal", err)
	}
	if sum, _ := rt.Summary(snap.ID); mustJSON(t, sum) != mustJSON(t, pending) || rt.InFlight(snap.ID) != 2 {
		t.Fatalf("refused report changed the instance: %s", mustJSON(t, sum))
	}
	sink.err = nil
	n := len(sink.recs)
	if err := rt.Report(up); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != n+1 {
		t.Fatalf("retried report journaled %d records, want 1", len(sink.recs)-n)
	}
	if sum, _ := rt.Summary(snap.ID); sum.PendingInvocations != 1 || sum.Events != pending.Events+1 {
		t.Fatalf("retried report: pending=%d events=%d", sum.PendingInvocations, sum.Events)
	}
	rt2 := mk(nil)
	sink.replayInto(t, rt2)
	assertSameState(t, rt, rt2)

	st := rt.RuntimeStats().Persistence
	if !st.Enabled || st.RecordErrors != 3 {
		t.Fatalf("persistence stats = %+v, want 3 errors", st)
	}
}

// TestCodecEquivalence pins the hand-rolled record encoder against
// encoding/json for every record shape: both must decode to the same
// record.
func TestCodecEquivalence(t *testing.T) {
	now := time.Date(2026, 7, 29, 10, 0, 0, 123456789, time.UTC)
	model := fig1(t)
	ref := wikiRef()
	recs := []*JournalRecord{
		{Op: RecInstantiate, Instance: "li-000001", Seq: 1, Model: model, ModelURI: model.URI,
			Resource: &ref, Owner: "owner", CreatedAt: now,
			Unresolved: []string{"urn:a"}, Bindings: map[string]map[string]string{"urn:a": {"k": "v"}},
			Events: []Event{{Seq: 1, Time: now, Kind: EventCreated, Actor: "owner", Detail: `model "q" on x`}}},
		{Op: RecAdvance, Instance: "li-000001", To: "elaboration",
			Events: []Event{
				{Seq: 2, Time: now, Kind: EventReopened, Actor: "o", Phase: "elaboration"},
				{Seq: 3, Time: now, Kind: EventPhaseEntered, Actor: "o", Phase: "elaboration", FromPhase: "accepted", Deviation: true, Detail: "note\nline"},
				{Seq: 4, Time: now, Kind: EventActionStarted, Phase: "elaboration", ActionURI: "urn:a", Invocation: "inv-000007", Detail: "Do"},
			},
			Executions: []ActionExecution{
				{InvocationID: "inv-000007", ActionURI: "urn:a", ActionName: "Do", Phase: "elaboration", StartedAt: now},
				{InvocationID: "inv-000008", ActionURI: "urn:b", ActionName: "B", Phase: "elaboration", StartedAt: now,
					Terminal: true, LastStatus: "failed", LastDetail: "no impl", DispatchErr: "no impl", Updates: 0},
			},
			State: StateActive, Current: "elaboration"},
		{Op: RecAnnotate, Instance: "li-000002",
			Events: []Event{{Seq: 9, Time: now, Kind: EventAnnotated, Actor: "o", Detail: "unicode — 東京 \t"}}},
		{Op: RecBind, Instance: "li-000002", Bindings: map[string]map[string]string{"urn:a": {"mode": "open"}}},
		{Op: RecReport, Instance: "li-000001", Invocation: "inv-000007", Status: "completed", Detail: "ok", Terminal: true,
			Events: []Event{{Seq: 5, Time: now, Kind: EventActionStatus, Invocation: "inv-000007", Status: "completed"}}},
		{Op: RecDispatchFail, Instance: "li-000001", Invocation: "inv-000009", Detail: "unreachable",
			Events: []Event{{Seq: 6, Time: now, Kind: EventActionStatus, Status: "failed"}}},
		{Op: RecPropose, Instance: "li-000003", Proposer: "designer", ProposedAt: now, Note: "v2", Model: model, DiffSummary: "+archival",
			Events: []Event{{Seq: 2, Time: now, Kind: EventChangeProposed}}},
		{Op: RecAccept, Instance: "li-000003", Landing: "archival", State: StateCompleted, Current: "archival", CompletedAt: now,
			Events: []Event{{Seq: 3, Time: now, Kind: EventChangeApplied}, {Seq: 4, Time: now, Kind: EventCompleted}}},
		{Op: RecReject, Instance: "li-000003",
			Events: []Event{{Seq: 5, Time: now, Kind: EventChangeRejected, Detail: "no"}}},
		{Op: RecSwitch, Instance: "li-000004", Landing: "draft", Proposer: "o", Model: model, ModelURI: "urn:other",
			State: StateActive, Current: "draft",
			Events: []Event{{Seq: 7, Time: now, Kind: EventChangeApplied}}},
	}
	for _, rec := range recs {
		fast, err := rec.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", rec.Op, err)
		}
		std, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var fromFast, fromStd JournalRecord
		if err := json.Unmarshal(fast, &fromFast); err != nil {
			t.Fatalf("%s: decode fast %s: %v", rec.Op, fast, err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		if f, s := mustJSON(t, fromFast), mustJSON(t, fromStd); f != s {
			t.Fatalf("%s: codec divergence:\nfast %s\nstd  %s", rec.Op, f, s)
		}
	}
}
