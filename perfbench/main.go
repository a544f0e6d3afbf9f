// Command perfbench is the repository's benchmark: it runs one named
// workload in a process of its own, checks every answer against the
// naive algorithm (Alg. 1) or an in-memory replay, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. See README.md for the workloads, the
// metrics and how each answer is checked.
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var processStart = time.Now()

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: serve-warm, cold-mixed, template-sweep or append-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: fixes the order of operations and the template bindings")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 replays every timed answer stage by stage and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {serve-warm|cold-mixed|template-sweep|append-mix} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Durable stores and span files live under .bench_build/, which
	// run.sh creates.
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		cfg.dir, _ = filepath.Abs(dir)
		defer os.RemoveAll(dir)
	}
	var res *result
	if err == nil {
		res, err = execute(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	info, _ := json.Marshal(res.info)
	fmt.Printf("%s\n", info)
	line, _ := json.Marshal(res.out)
	fmt.Printf("%s\n", line)
}
