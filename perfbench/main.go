// Command perfbench is the repository's end-to-end benchmark. It drives
// the anycastctx reproduction in-process through one of three workloads —
// regenerating every paper experiment from a cold world (paper-cold),
// evaluating the builtin what-if scenarios against a warm artifact store
// (whatif-warm), or emitting and decoding every root site capture
// (captures) — times the calls into each layer from outside, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root (see README.md in this directory):
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// fillEnv names the environment variable that turns the binary into the
// artifact-store fill child of whatif-warm (see fillStore).
const fillEnv = "PERFBENCH_FILL_DIR"

func main() {
	if dir := os.Getenv(fillEnv); dir != "" {
		if err := fillMain(dir, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench fill:", err)
			os.Exit(1)
		}
		return
	}
	var (
		opts  options
		trace int
	)
	flag.StringVar(&opts.workload, "workload", "", "workload: "+workloadNames)
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed (the world seed)")
	flag.Float64Var(&opts.seconds, "seconds", 15, "length of the timed phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&opts.workDir, "workdir", ".bench_build", "directory for the temporary store and trace files")
	flag.StringVar(&opts.writeDigests, "write-digests", "",
		"write the digests this run observed to this file instead of checking the pinned ones")
	flag.Parse()
	opts.packets = defaultPackets
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opts.trace = trace == 1
	if opts.trace {
		opts.traceFile = filepath.Join(opts.workDir, "traces",
			fmt.Sprintf("%s-seed%d.txt", opts.workload, opts.seed))
	}

	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.printed {
		fmt.Printf("%-44s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
