package runtime

import (
	"fmt"

	"github.com/liquidpub/gelee/internal/core"
)

// ProposeChange pushes a new model version to a running instance.
// Per §IV.B: "If designers change a lifecycle model, they can request to
// propagate the change to running lifecycles. Upon receiving the
// request, lifecycle owners can accept or reject the change."
//
// The proposal is attached to the instance; nothing changes until the
// owner decides. A second proposal replaces an undecided first one (the
// designer iterated), which is recorded in history.
func (r *Runtime) ProposeChange(instID, proposer string, newModel *core.Model, note string) error {
	if newModel == nil {
		return fmt.Errorf("runtime: nil model proposed")
	}
	if err := newModel.Validate(); err != nil {
		return err
	}
	return r.mutateID(instID, func(in *instance) (*JournalRecord, error) {
		diff := core.DiffModels(in.model, newModel).String()
		detail := diff
		if in.pending != nil {
			detail += " (replaces an undecided proposal)"
		}
		rec := &JournalRecord{Op: RecPropose, Instance: instID,
			Proposer: proposer, ProposedAt: r.clock.Now(), Note: note,
			Model: newModel.Clone(), DiffSummary: diff}
		rec.stage(in, rec.ProposedAt, Event{Kind: EventChangeProposed, Actor: proposer, Detail: detail, Phase: in.current})
		return rec, nil
	}, nil)
}

// AcceptChange applies the pending proposal. landing names the phase the
// instance should end up in within the modified model; it may be empty
// when the current phase still exists there ("they can state in which
// phase the lifecycle instance should end up in the modified model").
//
// Migration is state migration only: the token is placed, no actions
// fire, no transitions are evaluated. If the landing phase is final the
// instance completes; if the instance was completed and lands on a
// non-final phase it re-opens.
func (r *Runtime) AcceptChange(instID, actor, landing string) (Snapshot, error) {
	var snap Snapshot
	err := r.acceptChange(instID, actor, landing, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// AcceptChangeSummary is AcceptChange in the copy-free result mode: the
// post-migration summary plus only the events this call appended.
func (r *Runtime) AcceptChangeSummary(instID, actor, landing string) (MoveResult, error) {
	var res MoveResult
	err := r.acceptChange(instID, actor, landing, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// acceptChange is the shared migration entry point; project runs under
// the instance lock after a successful apply, with the appended events.
func (r *Runtime) acceptChange(instID, actor, landing string, project func(*instance, []Event)) error {
	return r.mutateID(instID, func(in *instance) (*JournalRecord, error) {
		if !r.policy.CanDrive(actor, instID) {
			return nil, fmt.Errorf("%w: %s may not migrate %s", ErrForbidden, actor, instID)
		}
		if in.pending == nil {
			return nil, fmt.Errorf("%w on %s", ErrNoPending, instID)
		}
		rec := &JournalRecord{Op: RecAccept, Instance: instID, Landing: landing}
		return rec, r.prepareMigration(in, rec, actor, in.pending.NewModel, in.pending.Summary)
	}, project)
}

// prepareMigration stages the token placement of a model change — the
// shared core of AcceptChange and SwitchModel. It resolves the landing
// phase in model, stages the change-applied event and any completion or
// re-opening after it (so history seq order matches observer order and
// MoveResult.Events stays contiguous), and mirrors the post-migration
// token state into rec. Callers hold in.mu; nothing is written to the
// instance.
func (r *Runtime) prepareMigration(in *instance, rec *JournalRecord, actor string, model *core.Model, summary string) error {
	target := rec.Landing
	if target == "" {
		target = in.current
	}
	isFinal := false
	if target != "" {
		p, ok := model.Phase(target)
		if !ok {
			return fmt.Errorf("%w: %q does not exist in the proposed model (current phase was removed — choose a landing phase)",
				ErrUnknownPhase, target)
		}
		isFinal = p.Final
	}
	detail := summary
	if rec.Landing != "" {
		detail += fmt.Sprintf("; landed on %q", rec.Landing)
	}
	now := r.clock.Now()
	rec.State, rec.Current, rec.CompletedAt = in.state, target, in.completedAt
	rec.stage(in, now, Event{Kind: EventChangeApplied, Actor: actor, Phase: target, Detail: detail})
	switch wasCompleted := in.state == StateCompleted; {
	case isFinal && !wasCompleted:
		rec.State, rec.CompletedAt = StateCompleted, now
		rec.stage(in, now, Event{Kind: EventCompleted, Actor: actor, Phase: target,
			Detail: "completed by migration"})
	case !isFinal && wasCompleted:
		rec.State = StateActive
		rec.stage(in, now, Event{Kind: EventReopened, Actor: actor, Phase: target,
			Detail: "re-opened by migration"})
	}
	return nil
}

// RejectChange discards the pending proposal; the instance keeps its
// current model (owners "can accept or reject the change").
func (r *Runtime) RejectChange(instID, actor, note string) error {
	return r.mutateID(instID, func(in *instance) (*JournalRecord, error) {
		if !r.policy.CanDrive(actor, instID) {
			return nil, fmt.Errorf("%w: %s may not decide for %s", ErrForbidden, actor, instID)
		}
		if in.pending == nil {
			return nil, fmt.Errorf("%w on %s", ErrNoPending, instID)
		}
		rec := &JournalRecord{Op: RecReject, Instance: instID}
		rec.stage(in, r.clock.Now(), Event{Kind: EventChangeRejected, Actor: actor, Phase: in.current,
			Detail: in.pending.Summary + noteSuffix(note)})
		return rec, nil
	}, nil)
}

func noteSuffix(note string) string {
	if note == "" {
		return ""
	}
	return "; " + note
}

// SwitchModel replaces the instance's model directly — the owner-side
// freedom of §IV.B ("owners can change the lifecycle followed by a
// resource, in other words they can change the model associated to a
// lifecycle instance"), without any designer proposal. landing follows
// the same rules as AcceptChange.
func (r *Runtime) SwitchModel(instID, actor string, newModel *core.Model, landing string) (Snapshot, error) {
	var snap Snapshot
	err := r.switchModel(instID, actor, newModel, landing, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// SwitchModelSummary is SwitchModel in the copy-free result mode: the
// post-switch summary plus only the events this call appended.
func (r *Runtime) SwitchModelSummary(instID, actor string, newModel *core.Model, landing string) (MoveResult, error) {
	var res MoveResult
	err := r.switchModel(instID, actor, newModel, landing, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// switchModel is the shared owner-switch core; project runs under the
// instance lock after a successful apply, with the appended events.
func (r *Runtime) switchModel(instID, actor string, newModel *core.Model, landing string, project func(*instance, []Event)) error {
	if newModel == nil {
		return fmt.Errorf("runtime: nil model")
	}
	if err := newModel.Validate(); err != nil {
		return err
	}
	return r.mutateID(instID, func(in *instance) (*JournalRecord, error) {
		if !r.policy.CanDrive(actor, instID) {
			return nil, fmt.Errorf("%w: %s may not switch the model of %s", ErrForbidden, actor, instID)
		}
		rec := &JournalRecord{Op: RecSwitch, Instance: instID, Landing: landing,
			Proposer: actor, ModelURI: newModel.URI}
		if err := r.prepareMigration(in, rec, actor, newModel, core.DiffModels(in.model, newModel).String()); err != nil {
			return nil, err
		}
		rec.Model = newModel.Clone()
		return rec, nil
	}, project)
}
