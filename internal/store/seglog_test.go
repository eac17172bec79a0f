package store

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// breakActive makes the next commit of l fail the way a dying device
// does, leaving nothing of that commit in the journal file. With
// syncFault false the buffered writer targets a read-only handle, so
// the flush fails. With syncFault true the flush lands in a scratch
// file standing in for page cache the device loses, and the fsync hits
// a closed handle. Call it while no append is in flight: the writer's
// buffer must be empty.
func breakActive(t *testing.T, l *segLog, syncFault bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	orig := l.j.f
	t.Cleanup(func() { orig.Close() })
	ro, err := os.Open(l.j.path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	l.j.w.Reset(ro)
	l.j.f = ro
	if syncFault {
		lost, err := os.CreateTemp(t.TempDir(), "lost")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lost.Close() })
		l.j.w.Reset(lost)
		ro.Close()
	}
}

// TestAppenderFaultAcksNothing pins the appender's failure contract
// through both of its owners, for a failed flush and a failed fsync:
// the failing batch acknowledges none of its appenders and runs none
// of their onCommit hooks, every later append errors, Appends excludes
// the failed records, and a reopen replays exactly the state memory
// held at the fault.
func TestAppenderFaultAcksNothing(t *testing.T) {
	for _, fault := range []struct {
		name string
		sync bool
	}{{"flush", false}, {"fsync", true}} {
		t.Run("store/"+fault.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*Store, *Repo[doc], *Log) {
				s, err := Open(dir, Options{Sync: true})
				if err != nil {
					t.Fatal(err)
				}
				repo := MustRepo[doc](s, "docs")
				log := MustLog(s, "execlog")
				if err := s.Load(); err != nil {
					t.Fatal(err)
				}
				return s, repo, log
			}
			s, repo, log := open()
			for i := 0; i < 5; i++ {
				if err := repo.Put(fmt.Sprintf("k%d", i), doc{Rev: i}); err != nil {
					t.Fatal(err)
				}
				if _, err := log.Append(LogEntry{Instance: "i1", Kind: "ok"}); err != nil {
					t.Fatal(err)
				}
			}
			appends := s.Stats().Engine.Appends
			wantDocs, wantLog := repoImage(repo), logImage(log)

			breakActive(t, s.engine.(*journalEngine).log, fault.sync)
			var hooks atomic.Int32
			var acked atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if repo.Put(fmt.Sprintf("lost%d", w), doc{Rev: w}) == nil {
						acked.Add(1)
					}
					if _, err := log.Append(LogEntry{Instance: "i1", Kind: "lost"}); err == nil {
						acked.Add(1)
					}
					if _, err := s.engine.Append(Entry{Repo: "docs", Op: OpPut, ID: "hooked", Data: []byte(`{}`)},
						func(uint64) { hooks.Add(1) }); err == nil {
						acked.Add(1)
					}
				}(w)
			}
			wg.Wait()
			if acked.Load() != 0 || hooks.Load() != 0 {
				t.Fatalf("failed batch: %d appends acknowledged, %d hooks ran", acked.Load(), hooks.Load())
			}
			if err := repo.Put("after", doc{}); err == nil {
				t.Fatal("append after a failed commit succeeded")
			}
			if got := s.Stats().Engine.Appends; got != appends {
				t.Fatalf("Appends = %d after the fault, want %d", got, appends)
			}
			if !reflect.DeepEqual(repoImage(repo), wantDocs) || !reflect.DeepEqual(logImage(log), wantLog) {
				t.Fatal("in-memory state changed by failed appends")
			}
			s.Close()

			s2, repo2, log2 := open()
			defer s2.Close()
			if got := repoImage(repo2); !reflect.DeepEqual(got, wantDocs) {
				t.Fatalf("replayed docs %v, want %v", got, wantDocs)
			}
			if got := logImage(log2); !reflect.DeepEqual(got, wantLog) {
				t.Fatalf("replayed log %v, want %v", got, wantLog)
			}
		})
		t.Run("instances/"+fault.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenInstances(dir, InstancesOptions{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := c.Append("li-1", []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
					t.Fatal(err)
				}
			}
			breakActive(t, c.log, fault.sync)
			var acked atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if c.Append("li-2", []byte(`{"lost":true}`)) == nil {
						acked.Add(1)
					}
				}()
			}
			wg.Wait()
			if acked.Load() != 0 {
				t.Fatalf("failed batch acknowledged %d appends", acked.Load())
			}
			if err := c.Append("li-1", []byte(`{}`)); err == nil {
				t.Fatal("append after a failed commit succeeded")
			}
			if got := c.Stats().Appends; got != 5 {
				t.Fatalf("Appends = %d after the fault, want 5", got)
			}
			c.Close()

			c2, err := OpenInstances(dir, InstancesOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			var got []string
			if err := c2.Replay(func(id string, data []byte) error {
				got = append(got, id+string(data))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := []string{`li-1{"n":0}`, `li-1{"n":1}`, `li-1{"n":2}`, `li-1{"n":3}`, `li-1{"n":4}`}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %v, want %v", got, want)
			}
		})
	}
}

// repoImage and logImage reduce a repository and a log to comparable
// values (log times are dropped: replay re-derives their location).
func repoImage(r *Repo[doc]) map[string]doc {
	out := make(map[string]doc)
	for _, id := range r.IDs() {
		out[id], _ = r.Get(id)
	}
	return out
}

func logImage(l *Log) []string {
	var out []string
	for _, e := range l.All() {
		out = append(out, fmt.Sprintf("%d:%s:%s", e.Seq, e.Instance, e.Kind))
	}
	return out
}

// TestAppenderTerminatesOnOneProc shows that flush-combining does not
// depend on the scheduler: with a single P, 8 concurrent durable
// appenders through each owner of the appender are all acknowledged,
// and no commit covers zero records.
func TestAppenderTerminatesOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const writers, perWriter = 8, 25
	run := func(t *testing.T, appendOne func(w, i int) error, stats func() EngineStats) {
		t.Helper()
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				for i := 0; i < perWriter; i++ {
					if err := appendOne(w, i); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		st := stats()
		if st.Appends != writers*perWriter || st.Batches == 0 || st.Batches > st.Appends {
			t.Fatalf("appends %d in %d batches, want %d appends in at most as many batches", st.Appends, st.Batches, writers*perWriter)
		}
	}
	t.Run("store", func(t *testing.T) {
		s, err := Open(t.TempDir(), Options{Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		repo := MustRepo[doc](s, "docs")
		if err := s.Load(); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run(t, func(w, i int) error { return repo.Put(fmt.Sprintf("w%d-%d", w, i), doc{Rev: i}) },
			func() EngineStats { return s.Stats().Engine })
	})
	t.Run("instances", func(t *testing.T) {
		c, err := OpenInstances(t.TempDir(), InstancesOptions{Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, func(w, i int) error { return c.Append(fmt.Sprintf("li-%d", w), []byte(`{}`)) }, c.Stats)
	})
}
