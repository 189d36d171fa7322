// Command perfbench is the repository's end-to-end benchmark: it starts
// the real mdserver binary with deployment flags only, sets a seeded
// corpus up over HTTP, drives one workload's op stream with a closed
// loop of two keep-alive clients, verifies sampled replies against the
// DOM oracle, and prints the end-to-end metrics. With --trace 1 it also
// replays the stream in-process once per layer boundary and prints the
// per-layer metrics instead. See README.md.
//
//	go build -o bin/mdserver ./cmd/mdserver
//	go -C perfbench build -o ../bin/perfbench .
//	bin/perfbench --workload browse --seed 1 --seconds 10 --trace 0 --server bin/mdserver
//
// The last line of standard output is the result object; the line
// before it carries the environment stamp and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: browse, survey or curate")
		seed    = flag.Int64("seed", 1, "workload seed: corpus, owners, published set and op stream")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		bin     = flag.String("server", filepath.Join(".bench_build", "bin", "mdserver"), "mdserver binary")
		runs    = flag.String("runs", filepath.Join(".bench_build", "runs"), "directory for per-run logs, data and profiles")
	)
	flag.Parse()
	spec, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload browse|survey|curate --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		spec:    spec,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		server:  *bin,
		runDir:  filepath.Join(*runs, fmt.Sprintf("%s-seed%d-trace%d-%d", spec.name, *seed, *trace, os.Getpid())),
		verbose: os.Stderr,
	}
	res, detail, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(map[string]any{"perfbench": detail})
	_ = out.Encode(res)
	if !res.Correct {
		os.Exit(1)
	}
}
