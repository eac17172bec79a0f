package runtime

import (
	"context"
	"fmt"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
)

// AdvanceOptions carries the optional inputs of a token move.
type AdvanceOptions struct {
	// Annotation explains the move; the paper singles annotations out as
	// the way owners justify not following the standard flow.
	Annotation string
	// CallBindings supplies call-stage parameter values per action URI
	// for the actions of the phase being entered.
	CallBindings map[string]map[string]string
}

// MoveResult is the copy-free result mode of the mutating verbs
// (AdvanceSummary, AcceptChangeSummary, SwitchModelSummary): the
// post-move summary plus only the events the call itself appended — no
// history deep copy, no execution slice, no model copy. EventsSince
// semantics: Events are contiguous and end at Summary.Events, so the
// first has Seq = Summary.Events - len(Events) + 1.
type MoveResult struct {
	Summary Summary `json:"summary"`
	Events  []Event `json:"events"`
}

// Advance moves the instance token to phase toPhase on behalf of actor
// and returns a full history snapshot. The HTTP tier prefers
// AdvanceSummary, which skips the history deep copy.
//
// Semantics follow §IV.B exactly:
//   - If the move follows a suggested transition from the token's
//     position, token owners and instance owners may perform it.
//   - Any other move is a *deviation*: legal (the model is descriptive,
//     "the lifecycle owner can at any time move the token to any
//     phase"), but reserved to instance owners and flagged in history.
//   - Entering a phase triggers its actions, all dispatched in parallel
//     with no ordering or transactional guarantee.
//   - Entering a final phase completes the instance; moving out of a
//     final phase re-opens it (recorded as a deviation + reopened).
//
// Only the moved instance's lock is held: concurrent Advances on
// different instances proceed fully in parallel.
func (r *Runtime) Advance(instID, toPhase, actor string, opts AdvanceOptions) (Snapshot, error) {
	var snap Snapshot
	err := r.advance(instID, toPhase, actor, opts, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// AdvanceSummary is Advance in the copy-free result mode: the post-move
// summary plus only the events this call appended.
func (r *Runtime) AdvanceSummary(instID, toPhase, actor string, opts AdvanceOptions) (MoveResult, error) {
	var res MoveResult
	err := r.advance(instID, toPhase, actor, opts, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// advance is the shared token-move core. project runs under the
// instance lock after the move applied, with the events this call
// appended (in seq order, already value copies safe to retain).
func (r *Runtime) advance(instID, toPhase, actor string, opts AdvanceOptions, project func(*instance, []Event)) error {
	var invs []actionlib.Invocation
	err := r.mutateID(instID, func(in *instance) (rec *JournalRecord, err error) {
		rec, invs, err = r.prepareAdvance(in, toPhase, actor, opts)
		return rec, err
	}, project)
	if err != nil {
		return err
	}
	r.launch(instID, invs)
	return nil
}

// prepareAdvance builds the record of a token move — the events, the
// post-move token state and the executions of the entered phase's
// actions — and the invocations to launch once it applied. Callers hold
// in.mu; nothing is written to the instance.
func (r *Runtime) prepareAdvance(in *instance, toPhase, actor string, opts AdvanceOptions) (*JournalRecord, []actionlib.Invocation, error) {
	target, ok := in.model.Phase(toPhase)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPhase, toPhase)
	}
	fromNode := in.current
	if fromNode == "" {
		fromNode = core.Begin
	}
	suggested := in.model.Suggests(fromNode, toPhase)
	if suggested {
		if !r.policy.CanFollow(actor, in.id, toPhase) {
			return nil, nil, fmt.Errorf("%w: %s may not follow %s -> %s on %s",
				ErrForbidden, actor, fromNode, toPhase, in.id)
		}
	} else if !r.policy.CanDrive(actor, in.id) {
		return nil, nil, fmt.Errorf("%w: %s may not deviate to %s on %s (instance owner required)",
			ErrForbidden, actor, toPhase, in.id)
	}
	// Validate call-stage bindings for the target phase's actions.
	for _, call := range target.Actions {
		if vals := opts.CallBindings[call.URI]; len(vals) > 0 {
			if err := actionlib.CheckStageBindings(r.specFor(call.URI), call, vals, actionlib.StageCall); err != nil {
				return nil, nil, err
			}
		}
	}

	// One event for the entry, plus a reopening, and either a
	// completion or one per action.
	n := 1 + len(target.Actions)
	if target.Final {
		n = 2
	}
	if in.state == StateCompleted {
		n++
	}
	now := r.clock.Now()
	rec := &JournalRecord{Op: RecAdvance, Instance: in.id, To: toPhase,
		State: StateActive, Current: toPhase, CompletedAt: in.completedAt,
		Events: make([]Event, 0, n)}
	if in.state == StateCompleted {
		rec.stage(in, now, Event{Kind: EventReopened, Actor: actor, Phase: toPhase,
			Detail: "token moved out of a final phase"})
	}
	// The deviation counter is maintained by the shared event applier
	// (applyRecorded) off the event's Deviation flag.
	rec.stage(in, now, Event{
		Kind: EventPhaseEntered, Actor: actor,
		Phase: toPhase, FromPhase: in.current,
		Detail: opts.Annotation, Deviation: !suggested,
	})
	if target.Final {
		rec.State, rec.CompletedAt = StateCompleted, now
		rec.stage(in, now, Event{Kind: EventCompleted, Actor: actor, Phase: toPhase})
		return rec, nil, nil
	}
	return rec, r.prepareDispatches(in, rec, now, target, opts.CallBindings), nil
}

// prepareDispatches resolves implementations and parameters for every
// action of the entered phase, adding one execution and its start (or
// failure) event per action to rec. Callers hold in.mu. Preparation
// failures (no implementation, binding errors) become executions that
// are terminal and failed from birth; the returned invocations are the
// successful preparations, for launch() once the record applied.
func (r *Runtime) prepareDispatches(in *instance, rec *JournalRecord, now time.Time, phase *core.Phase, callBindings map[string]map[string]string) []actionlib.Invocation {
	if len(phase.Actions) == 0 {
		return nil
	}
	rec.Executions = make([]ActionExecution, 0, len(phase.Actions))
	invs := make([]actionlib.Invocation, 0, len(phase.Actions))
	for _, call := range phase.Actions {
		invID := fmt.Sprintf("inv-%06d", r.nextInv.Add(1))
		exec := ActionExecution{
			InvocationID: invID,
			ActionURI:    call.URI,
			ActionName:   call.Name,
			Phase:        phase.ID,
			StartedAt:    now,
		}
		impl, err := r.cfg.Registry.Resolve(call.URI, in.res.Type)
		var params map[string]string
		if err == nil {
			params, err = actionlib.ResolveParams(r.specFor(call.URI), call,
				in.instBindings[call.URI], callBindings[call.URI])
		}
		if err == nil && r.cfg.Invoker == nil {
			err = fmt.Errorf("runtime: no invoker configured")
		}
		if err != nil {
			exec.DispatchErr = err.Error()
			exec.Terminal = true
			exec.LastStatus = actionlib.StatusFailed
			exec.LastDetail = err.Error()
			rec.Executions = append(rec.Executions, exec)
			rec.stage(in, now, Event{Kind: EventActionStatus, Phase: phase.ID,
				ActionURI: call.URI, Invocation: invID,
				Status: actionlib.StatusFailed, Detail: err.Error()})
			continue
		}
		rec.Executions = append(rec.Executions, exec)
		rec.stage(in, now, Event{Kind: EventActionStarted, Phase: phase.ID,
			ActionURI: call.URI, Invocation: invID, Detail: call.Name})

		callback := r.cfg.CallbackBase
		if callback == "" {
			callback = "callback:/" // local scheme for embedded use
		}
		invs = append(invs, actionlib.Invocation{
			ID:           invID,
			TypeURI:      call.URI,
			ActionName:   call.Name,
			Endpoint:     impl.Endpoint,
			Protocol:     impl.Protocol,
			ResourceURI:  in.res.URI,
			ResourceType: in.res.Type,
			CallbackURI:  callback + "/" + invID,
			Params:       params,
			Credentials:  in.res.Credentials,
		})
	}
	return invs
}

// launch hands prepared invocations to the invoker — in parallel
// goroutines by default ("all actions associated to a phase are executed
// in parallel and anyway in a non-deterministic order", §IV.A), inline
// when Config.SyncActions is set.
func (r *Runtime) launch(instID string, invs []actionlib.Invocation) {
	for _, inv := range invs {
		if r.cfg.SyncActions {
			if err := r.invoke(inv); err != nil {
				r.failDispatch(instID, inv.ID, err)
			}
			continue
		}
		r.dispatch.Add(1)
		go func() {
			defer r.dispatch.Done()
			if err := r.invoke(inv); err != nil {
				r.failDispatch(instID, inv.ID, err)
			}
		}()
	}
}

// invoke runs one dispatch under the configured end-to-end deadline.
func (r *Runtime) invoke(inv actionlib.Invocation) error {
	ctx := context.Background()
	if r.cfg.DispatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.DispatchTimeout)
		defer cancel()
	}
	return r.cfg.Invoker.Invoke(ctx, inv)
}

// failDispatch marks an invocation failed when the invoker itself
// errored (endpoint unreachable, etc.).
func (r *Runtime) failDispatch(instID, invID string, err error) {
	// A refused record leaves the execution pending, as it stands in the
	// journal; the dispatcher has no caller to report that to.
	_ = r.mutateID(instID, func(in *instance) (*JournalRecord, error) {
		exec, ok := in.executions[invID]
		if !ok || exec.Terminal {
			return nil, nil
		}
		rec := &JournalRecord{Op: RecDispatchFail, Instance: instID, Invocation: invID, Detail: err.Error()}
		rec.stage(in, r.clock.Now(), Event{Kind: EventActionStatus, Phase: exec.Phase,
			ActionURI: exec.ActionURI, Invocation: invID,
			Status: actionlib.StatusFailed, Detail: err.Error()})
		return rec, nil
	}, nil)
}

// Report delivers a status message from an action implementation — the
// callback URI path of §IV.C. Status strings are free-form except the
// reserved terminal pair; they are recorded, never interpreted.
// Updates for already-terminal executions are ignored (late duplicate
// callbacks are expected in a distributed setting). Routing goes
// through the sharded invocation index straight to the owning
// instance: no scan, no other instance's lock. An ErrJournal failure
// leaves the execution as it was, so the callback may be retried.
func (r *Runtime) Report(up actionlib.StatusUpdate) error {
	ish := r.invShardFor(up.InvocationID)
	ish.mu.RLock()
	in, ok := ish.m[up.InvocationID]
	ish.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: invocation %s", ErrNotFound, up.InvocationID)
	}
	return r.mutate(in, func(in *instance) (*JournalRecord, error) {
		exec := in.executions[up.InvocationID]
		if exec.Terminal {
			return nil, nil
		}
		rec := &JournalRecord{Op: RecReport, Instance: in.id, Invocation: up.InvocationID,
			Status: up.Message, Detail: up.Detail, Terminal: up.Terminal()}
		rec.stage(in, r.clock.Now(), Event{Kind: EventActionStatus, Phase: exec.Phase,
			ActionURI: exec.ActionURI, Invocation: up.InvocationID,
			Status: up.Message, Detail: up.Detail})
		return rec, nil
	}, nil)
}
