package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// JournalConfig configures a segmented journal: the directory, the
// durability level and the rotation policy. The zero value (plus a Dir)
// is valid: no fsync, no segment rotation.
type JournalConfig struct {
	// Dir is the directory holding the journal segments.
	Dir string
	// Sync fsyncs once per commit, so an acknowledged append survives a
	// machine crash; without it an append is write(2)-deep and survives
	// a killed process.
	Sync bool
	// SegmentMaxBytes seals the active segment once it grows past this
	// size, rotating to a fresh one under the appender lock. 0 disables
	// automatic rotation (Seal still rotates on demand).
	SegmentMaxBytes int64
	// SnapshotEvery triggers OnSeal once this many sealed segments
	// await folding (0 = every seal).
	SnapshotEvery int
	// OnSeal, if non-nil, is called after a rotation leaves at least
	// SnapshotEvery sealed segments unfolded — the hook a background
	// folder hangs off. It runs under the appender lock and must not
	// block.
	OnSeal func()
	// Integrity tunes corruption detection: quarantine mode and the
	// background scrubber (see IntegrityOptions).
	Integrity IntegrityOptions
}

// segLog states, reported through EngineStats.State.
const (
	logNew int32 = iota
	logRunning
	logDraining
	logClosed
)

// errNotOpen is returned by an append that arrives before replay has
// opened the log.
var errNotOpen = errors.New("store: append before Replay")

// segLog is the one appender of a segmented journal directory: the
// definitions Store's journal engine and the instance collection each
// own one. It owns the replay preamble, the active segment, seals and
// rotation, the background scrubber, the counters and close.
//
// Appends are flush-combined. An appender encodes its record into the
// shared buffered writer under mu, yields once so concurrent appenders
// can add theirs, and the first one back commits for everyone: one
// flush, one fsync in durable mode, then the onCommit hooks of every
// covered record in sequence order. The fsync runs outside mu, so
// appenders keep buffering behind it; one sync leader runs at a time
// and followers wait on cond until their record is durable. Nothing is
// allocated per append.
//
// Hooks run under mu, the lock every seal decision takes, and a seal
// first commits everything pending: "sealed implies applied", so a
// fold — which reads the sealed range under mu — never captures a live
// image missing a record of a segment it is about to delete.
//
// Failure is sticky. A failed write, flush or fsync acknowledges none
// of the records it covered, drops their hooks unrun, and fails every
// later append.
type segLog struct {
	cfg JournalConfig

	mu      sync.Mutex
	cond    sync.Cond // on mu: durable advanced, a sync ended, or the log failed
	j       *Journal
	sf      *segFiles // set once by open
	replay  ReplayStats
	hooks   []commitHook // onCommit hooks of written, uncommitted records, in seq order
	durable uint64       // highest sequence flushed (+fsynced) and applied
	syncing bool         // a sync leader is in fsync without mu
	err     error        // sticky failure; ErrClosed once closed

	state     atomic.Int32
	stopScrub func() // nil without Integrity.ScrubInterval

	inflight atomic.Int64
	appends  atomic.Uint64
	batches  atomic.Uint64
	syncs    atomic.Uint64
	maxBatch atomic.Int64
}

// commitHook is one record's onCommit, waiting for its commit.
type commitHook struct {
	seq uint64
	fn  func(uint64)
}

// newSegLog builds (but does not open) the appender for cfg.Dir,
// creating the directory if missing.
func newSegLog(cfg JournalConfig) (*segLog, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create journal dir: %w", err)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1
	}
	l := &segLog{cfg: cfg}
	l.cond.L = &l.mu
	return l, nil
}

// replayDir streams the directory's generation through fn — sharded by
// key across workers goroutines when workers > 1, so each key's
// entries apply in exactly the sequential order — and truncates a torn
// active tail so the next append starts on a record boundary. In
// quarantine mode a pre-verify pass first moves every file that fails
// its CRCs aside, before anything is applied (see preVerify). The log
// accepts appends only after open.
func (l *segLog) replayDir(key func(Entry) string, workers int, fn func(Entry) error) (sr segReplay, err error) {
	quarantined, corrupt := 0, 0
	if l.cfg.Integrity.Quarantine {
		if quarantined, corrupt, err = preVerify(l.cfg.Dir, l.cfg.Integrity.OnCorrupt); err != nil {
			return sr, err
		}
	}
	if workers <= 1 {
		sr, err = replaySegmented(l.cfg.Dir, key, fn)
	} else {
		fo := newFanOut(workers, fn)
		sr, err = replaySegmented(l.cfg.Dir, key, func(e Entry) error { return fo.dispatch(key(e), e) })
		if finishErr := fo.finish(); err == nil {
			err = finishErr
		}
	}
	sr.quarantined, sr.corrupt = quarantined, corrupt
	if err != nil {
		return sr, err
	}
	return sr, truncateTorn(l.cfg.Dir, sr.active.good)
}

// open makes the replayed generation live: the active segment opens for
// appending at the replayed sequence, and the scrubber starts.
func (l *segLog) open(sr segReplay) error {
	j, err := OpenJournal(filepath.Join(l.cfg.Dir, journalName), sr.lastSeq)
	if err != nil {
		return err
	}
	j.adoptReplay(sr.active)
	sf := newSegFiles(l.cfg.Dir, sr.state)
	sf.adoptIntegrity(sr, l.cfg.Integrity.OnCorrupt)
	l.mu.Lock()
	l.j, l.sf, l.durable, l.replay = j, sf, sr.lastSeq, sr.stats
	l.mu.Unlock()
	l.state.Store(logRunning)
	if iv := l.cfg.Integrity.ScrubInterval; iv > 0 {
		l.stopScrub = scrubLoop(iv, l.cfg.Integrity.ScrubBytesPerTick, l.scrub)
	}
	return nil
}

// append writes e at the next sequence and returns that sequence once
// the record is committed at the configured durability. onCommit, if
// non-nil, runs before append returns, in sequence order with every
// other record's hook, and never for a record that failed.
func (l *segLog) append(e Entry, onCommit func(uint64)) (uint64, error) {
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.j == nil {
		return 0, errNotOpen
	}
	seq, err := l.j.writeEntry(e)
	if err != nil {
		return 0, l.failLocked(err)
	}
	if onCommit != nil {
		l.hooks = append(l.hooks, commitHook{seq, onCommit})
	}
	l.mu.Unlock()
	runtime.Gosched() // let concurrent appenders join this commit
	l.mu.Lock()
	for l.durable < seq {
		switch {
		case l.err != nil:
			return 0, l.err
		case l.syncing:
			l.cond.Wait()
		default:
			if l.commitLocked(true) == nil {
				l.maybeRotateLocked()
			}
		}
	}
	return seq, nil
}

// commitLocked makes every record written so far durable and applied:
// one flush, one fsync in durable mode, then the pending hooks. With
// unlocked set the fsync runs without mu — appenders keep buffering and
// followers wait on cond. Callers hold mu, with no sync in flight.
func (l *segLog) commitLocked(unlocked bool) error {
	hi := l.j.Seq()
	if hi == l.durable {
		return nil
	}
	if err := l.j.Flush(); err != nil {
		return l.failLocked(err)
	}
	if l.cfg.Sync {
		f := l.j.f
		if unlocked {
			l.syncing = true
			l.mu.Unlock()
		}
		err := f.Sync()
		if unlocked {
			l.mu.Lock()
			l.syncing = false
		}
		if err != nil {
			return l.failLocked(fmt.Errorf("store: sync journal: %w", err))
		}
	}
	l.ackLocked(hi)
	return nil
}

// ackLocked marks every record up to hi durable — flushed, and fsynced
// in durable mode: their hooks run in sequence order, the counters
// advance and waiting appenders wake.
func (l *segLog) ackLocked(hi uint64) {
	n := 0
	for ; n < len(l.hooks) && l.hooks[n].seq <= hi; n++ {
		l.hooks[n].fn(l.hooks[n].seq)
	}
	rest := copy(l.hooks, l.hooks[n:])
	clear(l.hooks[rest:])
	l.hooks = l.hooks[:rest]
	batch := hi - l.durable
	l.durable = hi
	l.appends.Add(batch)
	l.batches.Add(1)
	if l.cfg.Sync {
		l.syncs.Add(1)
	}
	if int64(batch) > l.maxBatch.Load() {
		l.maxBatch.Store(int64(batch))
	}
	l.cond.Broadcast()
}

// failLocked latches err (the first failure wins), drops the hooks of
// every uncommitted record and wakes the waiters to fail.
func (l *segLog) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	clear(l.hooks)
	l.hooks = l.hooks[:0]
	l.cond.Broadcast()
	return l.err
}

// maybeRotateLocked seals the active segment once it outgrew
// SegmentMaxBytes and pokes OnSeal when enough sealed segments await
// folding. A seal failure is sticky and surfaces on the next append.
func (l *segLog) maybeRotateLocked() {
	if l.cfg.SegmentMaxBytes <= 0 || l.j.Size() < l.cfg.SegmentMaxBytes {
		return
	}
	if l.sealLocked() == nil && l.cfg.OnSeal != nil && l.sf.sealedCount() >= uint64(l.cfg.SnapshotEvery) {
		l.cfg.OnSeal()
	}
}

// seal rotates the active segment now (a no-op when it is empty).
func (l *segLog) seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

// sealLocked waits out an in-flight sync, then seals (segFiles.seal:
// footer, flush, fsync, rename, fresh active file). The seal's fsync
// makes every pending record durable, and they are applied before mu
// is released.
func (l *segLog) sealLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.j == nil {
		return ErrClosed
	}
	hi := l.j.Seq()
	nj, err := l.sf.seal(l.j)
	l.j = nj
	if err != nil {
		return l.failLocked(err)
	}
	if hi > l.durable {
		l.ackLocked(hi)
	}
	return nil
}

// foldBounds samples a fold's boundary under mu: the highest sealed
// segment (the fold covers 1..covers) and the current sequence, which
// the snapshot carries forward as its high-water mark.
func (l *segLog) foldBounds() (covers, hwm uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j == nil {
		return 0, 0, ErrClosed
	}
	return l.sf.sealedHi, l.j.Seq(), nil
}

// seq is the sequence of the newest written record.
func (l *segLog) seq() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j == nil {
		return 0, ErrClosed
	}
	return l.j.Seq(), nil
}

// scrub runs one bounded verification tick over the sealed segments,
// newest snapshot and archives (see scrub.go); zeros unless running.
func (l *segLog) scrub(maxBytes int64) ScrubResult {
	if l.state.Load() != logRunning {
		return ScrubResult{}
	}
	return l.sf.scrubTick(maxBytes)
}

// depth is the number of appenders in flight — written or waiting, not
// yet acknowledged: the saturation signal admission control samples.
func (l *segLog) depth() int { return int(l.inflight.Load()) }

// stats reports the appender counters plus the segment, fold, archive,
// integrity and replay counters under the given engine name.
func (l *segLog) stats(engine string) EngineStats {
	st := EngineStats{
		Engine:   engine,
		State:    StateClosed,
		Appends:  l.appends.Load(),
		Batches:  l.batches.Load(),
		Syncs:    l.syncs.Load(),
		MaxBatch: int(l.maxBatch.Load()),
		Pending:  l.depth(),
	}
	switch l.state.Load() {
	case logRunning:
		st.State = StateRunning
	case logDraining:
		st.State = StateDraining
	}
	l.mu.Lock()
	st.LastSeq = l.durable
	sf, replay := l.sf, l.replay
	l.mu.Unlock()
	if sf != nil {
		sf.statsInto(&st, replay)
	}
	return st
}

// close stops the scrubber, waits out an in-flight sync, commits and
// applies everything pending, and closes the active segment; later
// appends get ErrClosed. After a failure nothing more is flushed.
// Idempotent.
func (l *segLog) close() error {
	if l.stopScrub != nil {
		l.stopScrub()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j == nil {
		if l.err == nil {
			l.err = ErrClosed
		}
		l.state.Store(logClosed)
		return nil
	}
	l.state.Store(logDraining)
	for l.syncing {
		l.cond.Wait()
	}
	err := l.err
	if err == nil {
		err = l.commitLocked(false)
	}
	if err == nil {
		err = l.j.Close()
	} else {
		l.j.f.Close()
	}
	l.j = nil
	if l.err == nil {
		l.err = ErrClosed
	}
	l.state.Store(logClosed)
	l.cond.Broadcast()
	return err
}
