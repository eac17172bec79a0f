// Command perfbench is the repository benchmark. It starts a
// gelee.System in process, serves the real handler stack on a loopback
// listener and drives it with an open-loop Poisson generator and then a
// closed loop, checking every response and, at the end, the whole
// System state. With --trace 1 a second kind of run times each layer
// from outside (see trace.go) and reports per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload durable-writes --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
		seed    = flag.Int64("seed", 1, "seed of the population and the request schedule")
		seconds = flag.Int("seconds", 10, "measured seconds per run (set-up and recovery come on top)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch data goes under <root>/.bench_build")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		// A missing .bench_build means run.sh did not build us here.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type config struct {
	seed    int64
	seconds int
	trace   bool
	dir     string
}

// nproc bounds the generator's workers and connections and the action
// service's callback workers.
func nproc() int { return runtime.NumCPU() }
