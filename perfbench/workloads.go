package main

import (
	"fmt"
	"time"

	"github.com/liquidpub/gelee"
)

// share is one request class's weight in a workload's mix.
type share struct {
	class  string
	weight float64
}

// workload is one traffic mix over one configured System. The open-loop
// rate is fixed well below the closed-loop throughput (11–22% of it on
// a calm 2-core host), so that a contended host slows requests without
// building a queue that grows for the rest of the run; the report
// checks it against the latency limits, and it is not searched for on
// each run.
type workload struct {
	name         string
	population   int
	models       int
	owners       int
	seeders      int // goroutines creating the population
	zipfModels   bool
	maxSeedSteps int      // each instance is advanced a seeded 0..max steps
	seedPath     []string // phases those steps visit
	sync         bool
	auth         bool
	actions      bool
	rate         float64 // open-loop arrivals per second
	mix          []share
	// p99 limits the open-loop rate must meet, in ms (0 = none).
	writeLimit, readLimit, actionLimit float64
	model                              func(i int) *gelee.Model
}

var workloads = map[string]*workload{
	// Every acknowledged write pays an instance-journal append and
	// fsync plus the execution-log group commit and its fsync; reads,
	// the read cache, monitor and invoke stay idle.
	"durable-writes": {
		name:       "durable-writes",
		population: 20_000,
		models:     1,
		owners:     8,
		seeders:    16,
		sync:       true,
		auth:       true,
		rate:       500,
		mix: []share{
			{"advance", 80}, {"instantiate", 10}, {"annotate", 10},
		},
		writeLimit: 10,
		model:      func(int) *gelee.Model { return cycleModel("urn:bench:durable", "") },
	},
	// The population index, secondary indexes, monitor, JSON encoding
	// of large envelopes and the read cache do the work; the journals
	// are idle. 8 models fit the read cache (64 entries x 16 shards).
	// 50k instances, not more: at 200k one set-up takes ~20 s, one
	// recovery ~14 s and the heap 1.3 GB, too much for a run repeated
	// dozens of times on a shared 2-core, 8 GB host.
	"cockpit-reads": {
		name:         "cockpit-reads",
		population:   50_000,
		models:       8,
		owners:       8,
		seeders:      8,
		zipfModels:   true,
		maxSeedSteps: 3,
		seedPath:     []string{"draft", "review", "done"},
		rate:         600,
		mix: []share{
			{"page", 45}, {"timeline", 20}, {"resource", 12}, {"model", 10},
			{"montimeline", 6}, {"overview", 5}, {"modelpage", 1.5},
			{"latepage", 0.4}, {"summary", 0.1},
		},
		readLimit: 50,
		model:     cockpitModel,
	},
	// The paper's full loop: writes beside reads on the same shards and
	// population index, every phase entry dispatching a REST action
	// whose service calls back; 2,048 models exceed the 1,024-entry
	// read cache.
	"action-loop": {
		name:       "action-loop",
		population: 20_000,
		models:     2048,
		owners:     8,
		seeders:    2,
		auth:       true,
		actions:    true,
		rate:       1000,
		mix: []share{
			{"advance", 30}, {"instantiate", 10}, {"annotate", 5},
			{"page", 35}, {"timeline", 10}, {"model", 10},
		},
		writeLimit:  10,
		actionLimit: 50,
		model: func(i int) *gelee.Model {
			return cycleModel(fmt.Sprintf("urn:bench:act:%04d", i), actionURI)
		},
	},
}

// workloadOrder is the order workloads are listed in.
var workloadOrder = []string{"durable-writes", "cockpit-reads", "action-loop"}

// cycleModel is work ⇄ check → done; with action set, work and check
// each carry that REST action (final phases may carry none).
func cycleModel(uri, action string) *gelee.Model {
	b := gelee.NewModel(uri, "cycle").SuggestTypes(resType)
	work := b.Phase("work", "Work")
	check := work.Done().Phase("check", "Check")
	if action != "" {
		work.Action(action, "notify")
		check.Action(action, "notify")
	}
	return check.Done().
		FinalPhase("done", "Done").
		Initial("work").
		Chain("work", "check", "done").
		Transition("check", "work").
		MustBuild()
}

// cockpitModel is draft → review → done with deadlines that differ by
// model, so that some seeded instances are late and others not.
func cockpitModel(i int) *gelee.Model {
	soon, later := time.Microsecond, 1000*time.Hour
	draftDue, reviewDue := later, later
	if i%2 == 0 {
		draftDue = soon
	}
	if i%4 == 1 {
		reviewDue = soon
	}
	return gelee.NewModel(fmt.Sprintf("urn:bench:cockpit:%d", i), fmt.Sprintf("cockpit-%d", i)).
		SuggestTypes(resType).
		Phase("draft", "Draft").DueIn(draftDue).Done().
		Phase("review", "Review").DueIn(reviewDue).Done().
		FinalPhase("done", "Done").
		Initial("draft").
		Chain("draft", "review", "done").
		Transition("review", "draft").
		MustBuild()
}
