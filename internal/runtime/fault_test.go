package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/vclock"
)

// TestJournalFaultReplayEquality is the journal-before-apply property:
// random verbs of all ten mutation kinds on a handful of instances,
// against a sink that fails each record with some probability. After
// every step the live runtime must equal both a fresh replay of the
// acknowledged records and a replay of the snapshot images folding
// would write — an error means the mutation did not happen, and an
// acknowledgement means replay rebuilds it. The verbs run as a few
// seeded walks, each from an empty runtime, so the per-step fresh
// replays stay short.
func TestJournalFaultReplayEquality(t *testing.T) {
	seen := map[RecordOp]bool{}
	var failed int64
	for seed := int64(1); seed <= 5; seed++ {
		failed += faultWalk(t, seed, 50, seen)
	}
	for _, op := range []RecordOp{RecInstantiate, RecAdvance, RecAnnotate, RecBind, RecReport,
		RecDispatchFail, RecPropose, RecAccept, RecReject, RecSwitch} {
		if !seen[op] {
			t.Errorf("no acknowledged %s record in the walks", op)
		}
	}
	if failed == 0 {
		t.Error("the sink never failed")
	}
}

// faultWalk runs one seeded walk of steps random verbs, checking both
// oracles after each; it marks the ops of the acknowledged records in
// seen and returns how many records the sink refused.
func faultWalk(t *testing.T, seed int64, steps int, seen map[RecordOp]bool) int64 {
	const (
		maxInst   = 5
		failRate  = 0.2
		pdfURI    = "http://www.liquidpub.org/a/pdf"    // dispatch always fails
		chrURI    = "http://www.liquidpub.org/a/chr"    // reports back inline
		notifyURI = "http://www.liquidpub.org/a/notify" // stays pending
		postURI   = "http://www.liquidpub.org/a/post"
	)
	rng := rand.New(rand.NewSource(seed))
	sink := &captureSink{fail: func() bool { return rng.Float64() < failRate }}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	var rt *Runtime
	invoker := InvokerFunc(func(_ context.Context, inv actionlib.Invocation) error {
		switch inv.TypeURI {
		case pdfURI:
			return fmt.Errorf("endpoint %s unreachable", inv.Endpoint)
		case chrURI:
			return rt.Report(actionlib.StatusUpdate{InvocationID: inv.ID, Message: actionlib.StatusCompleted})
		}
		return nil
	})
	cfg := Config{Registry: testActions(t), Invoker: invoker, Clock: clock, SyncActions: true}
	fresh := func() *Runtime {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	live := cfg
	live.Journal = sink
	rt, err := New(live)
	if err != nil {
		t.Fatal(err)
	}

	v1 := fig1(t)
	v2 := fig1(t)
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival", Final: true})
	other, err := core.NewModel("urn:gelee:models:other", "Other lifecycle").
		Phase("draft", "Draft").FinalPhase("done", "Done").
		Initial("draft").Transition("draft", "done").Build()
	if err != nil {
		t.Fatal(err)
	}
	models := []*core.Model{v1, v2, other}
	refs := []resource.Ref{wikiRef(),
		{URI: "http://docs.example.org/d2", Type: "gdoc"},
		{URI: "svn://svn.example.org/d3", Type: "svn"}} // no implementations: unresolved actions
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	phasesOf := func(m *core.Model) []string { return append(m.PhaseIDs(), "", "nowhere") }

	for step := 0; step < steps; step++ {
		ids := make([]string, 0, maxInst)
		for _, s := range rt.Summaries() {
			ids = append(ids, s.ID)
		}
		var (
			verb string
			err  error
		)
		if len(ids) == 0 || (len(ids) < maxInst && rng.Intn(8) == 0) {
			verb = "instantiate"
			var binds map[string]map[string]string
			if rng.Intn(2) == 0 {
				binds = map[string]map[string]string{notifyURI: {"reviewers": "alice"}}
			}
			_, err = rt.Instantiate(models[rng.Intn(2)], refs[rng.Intn(len(refs))], "owner", binds)
		} else {
			id := pick(ids)
			snap, _ := rt.Instance(id)
			switch rng.Intn(8) {
			case 0, 1, 2:
				verb = "advance"
				opts := AdvanceOptions{Annotation: "step"}
				if rng.Intn(2) == 0 {
					opts.CallBindings = map[string]map[string]string{postURI: {"site": "example.org"}}
				}
				_, err = rt.AdvanceSummary(id, pick(phasesOf(snap.Model)), "owner", opts)
			case 3:
				verb = "annotate"
				err = rt.Annotate(id, "owner", fmt.Sprintf("note %d", step))
			case 4:
				verb = "bind"
				err = rt.BindParams(id, "owner", pick([]string{chrURI, notifyURI}),
					map[string]string{pick([]string{"mode", "reviewers"}): "x"})
			case 5:
				verb = "report"
				if len(snap.Executions) == 0 {
					continue
				}
				ex := snap.Executions[rng.Intn(len(snap.Executions))]
				err = rt.Report(actionlib.StatusUpdate{InvocationID: ex.InvocationID,
					Message: pick([]string{"working", actionlib.StatusCompleted, actionlib.StatusFailed})})
			case 6:
				verb = "propose"
				err = rt.ProposeChange(id, "designer", models[rng.Intn(len(models))], "v")
			default:
				switch rng.Intn(3) {
				case 0:
					verb = "accept"
					landing := ""
					if snap.Pending != nil && rng.Intn(2) == 0 {
						landing = pick(snap.Pending.NewModel.PhaseIDs())
					}
					_, err = rt.AcceptChangeSummary(id, "owner", landing)
				case 1:
					verb = "reject"
					err = rt.RejectChange(id, "owner", "no")
				default:
					verb = "switch"
					m := models[rng.Intn(len(models))]
					_, err = rt.SwitchModelSummary(id, "owner", m, pick(phasesOf(m)))
				}
			}
		}
		if err != nil && !errors.Is(err, ErrJournal) && !errors.Is(err, ErrUnknownPhase) &&
			!errors.Is(err, ErrNoPending) && !strings.Contains(err.Error(), "references no action") {
			t.Fatalf("seed %d step %d %s: unexpected error %v", seed, step, verb, err)
		}
		clock.Advance(time.Duration(rng.Intn(48)) * time.Hour)

		want := viewOf(t, rt)
		replayed := fresh()
		sink.replayInto(t, replayed)
		assertView(t, fmt.Sprintf("seed %d step %d %s: journal replay", seed, step, verb), want, viewOf(t, replayed))
		folded := fresh()
		for _, r := range emitAll(t, rt) {
			if err := folded.ApplyJournal(r.id, r.data); err != nil {
				t.Fatal(err)
			}
		}
		folded.FinishRecovery()
		assertView(t, fmt.Sprintf("seed %d step %d %s: snapshot replay", seed, step, verb), want, viewOf(t, folded))
	}
	for _, r := range sink.recs {
		var rec JournalRecord
		if err := json.Unmarshal(r.data, &rec); err != nil {
			t.Fatal(err)
		}
		seen[rec.Op] = true
	}
	return rt.RuntimeStats().Persistence.RecordErrors
}
