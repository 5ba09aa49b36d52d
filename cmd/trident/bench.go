package main

// The bench subcommand writes the benchmark trajectory: it runs every case
// of benchio.Suite -count times through testing.Benchmark, folds the runs
// into min/mean ns/op, applies every gate of benchio.Gates and writes the
// BENCH_PR10.json trajectory (schema trident-bench/3), exiting non-zero
// after the write if a gate fails. -cpuprofile / -memprofile capture pprof
// profiles of the run for `go tool pprof`. SIGINT/SIGTERM stop the run at a
// benchmark boundary: the partial trajectory is still written (gates
// skipped) instead of the run being killed mid-write.

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"testing"

	"trident/internal/benchio"
)

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH_PR10.json", "trajectory file to write")
	count := fs.Int("count", 1, "runs of each benchmark; the file keeps the minimum and mean ns/op")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the benchmark run to this file")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *count < 1 {
		log.Fatalf("bench: -count %d, want at least 1", *count)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	// A signal stops the sweep at the next benchmark boundary; the partial
	// trajectory below still gets written and the process exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var runs []benchio.Run
	for _, c := range benchio.Suite {
		for i := 0; i < *count && ctx.Err() == nil; i++ {
			r := testing.Benchmark(c.Run)
			if r.N == 0 {
				log.Fatalf("bench: %s failed", c.Name)
			}
			fmt.Printf("%-44s\t%s\t%s\n", c.Name, r.String(), r.MemString())
			runs = append(runs, benchio.Run{Name: c.Name, BenchmarkResult: r})
		}
	}

	// Profiles cover only the benchmark work above; stop/write them before
	// gating so a failed gate (log.Fatal skips defers) still leaves usable
	// profile files behind.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // materialise final allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	rep := &benchio.Report{Schema: benchio.Schema, GoVersion: runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0), Results: benchio.Fold(runs)}
	// A partial sweep cannot be gated fairly: the interrupted trajectory is
	// still written, but the gates are skipped because their reference
	// benchmarks may be missing.
	interrupted := ctx.Err() != nil
	if !interrupted {
		for _, g := range benchio.Gates {
			if err := rep.ApplyGate(g); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := benchio.WriteFile(*out, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))
	if interrupted {
		fmt.Println("interrupted: partial trajectory; speedup gates skipped")
		return
	}
	for _, g := range rep.Gates {
		status := ""
		if g.Waived {
			status = fmt.Sprintf(" [waived: %d CPU < %d]", rep.MaxProcs, g.MinProcs)
		}
		fmt.Printf("%s vs %s: %.1f× speedup (gate ≥%.1f×)%s\n", g.Fast, g.Ref, g.Speedup, g.Required, status)
	}
	if !rep.GatesPassed() {
		log.Fatal("speedup gate FAILED")
	}
}
