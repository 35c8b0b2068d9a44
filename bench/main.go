// Command bench is the repository's benchmark. It measures the
// simulator's sweep throughput and single-cell latency through
// core.RunMatrixWith, and micached's miss, disk-hit and memory-hit
// latency over loopback HTTP, checks every result for correctness, and
// prints each metric declared in BENCHMARK.json.
//
// Run it through bench.sh from the repository root, which builds this
// program and micached first:
//
//	bash bench/bench.sh run --workload <name|all> --seed N --seconds S --trace 0|1 [--out f.jsonl]
//	bash bench/bench.sh compare parent.jsonl change.jsonl
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// global flags, set by bench.sh.
var (
	rootDir  string // repository root: BENCHMARK.json and the sources
	buildDir string // binaries, scratch space and trace output
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&rootDir, "root", ".", "repository root")
	fs.StringVar(&buildDir, "build", ".bench_build", "build and scratch directory")
	fs.Parse(os.Args[1:])
	if fs.NArg() == 0 {
		usage()
	}
	var err error
	var code int
	switch cmd, args := fs.Arg(0), fs.Args()[1:]; cmd {
	case "run":
		code, err = cmdRun(args)
	case "child":
		err = cmdChild(args)
	case "compare":
		code, err = cmdCompare(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bench [-root dir] [-build dir] run --workload <name|all> --seed N --seconds S --trace 0|1 [--out f.jsonl]
       bench [-root dir] [-build dir] compare parent.jsonl change.jsonl`)
	os.Exit(2)
}

// declPath is BENCHMARK.json in the repository root.
func declPath() string { return filepath.Join(rootDir, "BENCHMARK.json") }
