// Package benchkit is the repository's one benchmark: it builds the real
// cubrick-coordinator and cubrick-worker binaries, runs them as child
// processes on loopback and drives them over HTTP with CQL, the way a
// dashboard would. It imports nothing but the standard library, so it
// measures any two commits with byte-identical code: the binaries' flags,
// HTTP API and CQL are its only contact with the system.
//
// README.md in this directory defines the workloads and every metric.
package benchkit

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runLimit is how long one run may take before it is abandoned; the
// benchmark contract allows 180 s.
const runLimit = 170 * time.Second

// Main is cmd/bench: it parses args, runs, prints, and returns the exit
// code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: adhoc_scan, dash_replay, wide_fanout or wall_faults")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 13, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	agree := fs.Int("agree", 0, "run every workload this many times per set, two sets, and exit non-zero unless the sets agree within each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A signal or the time limit cancels ctx; every function holding a rig
	// stops it on its way out, and Pdeathsig covers a kill of this process.

	if *agree > 0 {
		return Agree(ctx, *agree, *seed, *seconds, stdout)
	}
	w := FindWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	printJSON(stdout, "env", Env(*seed))
	rep, err := Run(ctx, Options{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Log: stdout})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.Print(stdout, w.Name, *trace != 0)
	return 0
}

func printJSON(w io.Writer, prefix string, v interface{}) {
	b, _ := json.Marshal(v) // maps of plain values cannot fail to marshal
	fmt.Fprintf(w, "%s %s\n", prefix, b)
}

// Print writes one "workload metric value unit n" line per metric and
// then, as the last line, the result object the benchmark contract reads.
func (r *Report) Print(w io.Writer, workload string, traced bool) {
	defs := EndToEnd
	if traced {
		defs = PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		if v == Absent {
			fmt.Fprintf(w, "%s %s absent %s %d\n", workload, d.Name, d.Unit, r.Samples)
			continue
		}
		fmt.Fprintf(w, "%s %s %v %s %d\n", workload, d.Name, v, d.Unit, r.Samples)
	}
	if r.Samples < minSamples {
		fmt.Fprintf(w, "%s UNRESOLVED only %d query samples; p95 needs %d\n", workload, r.Samples, minSamples)
	}
	b, _ := json.Marshal(map[string]interface{}{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", b)
}
