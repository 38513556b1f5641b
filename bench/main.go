// Command bench is the repository's benchmark: one process hosts the
// load generator and a loopback deployment of the serving tier (front
// server, aggregator, 8 component servers), runs one of four workloads
// for a fixed, seed-generated op sequence, checks every reply, and
// prints the metrics as JSON. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// procs pins GOMAXPROCS to the one CPU the process confines itself to
// (see pinToOneCPU): load generator and deployment interleave on it.
const procs = 1

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 15, "run length: fixes the op count (ops = the workload's rate x seconds)")
		trace   = flag.Int("trace", 0, "1: the traced per-layer run; 0: the untraced end-to-end run")
		aa      = flag.Bool("aa", false, "self-check: three back-to-back sets of runs of this same code must agree within the bounds")
		runs    = flag.Int("runs", 5, "runs per set and workload for -aa, each with another seed")
		outDir  = flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cannot pin to one CPU, timings will be noisier:", err)
	}
	runtime.GOMAXPROCS(procs)
	if err := mainErr(*name, *seed, *seconds, *trace, *aa, *runs, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace int, aa bool, runs int, outDir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var ws []*workload
	if name == "all" {
		ws = workloads()
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if aa {
		return selfCheck(ws, seed, seconds, runs)
	}
	results := map[string]result{}
	for _, w := range ws {
		rep, err := runOne(w, seed, seconds, trace, outDir)
		if err != nil {
			return err
		}
		for _, n := range rep.Notes {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, n)
		}
		for _, n := range rep.Invalid {
			fmt.Fprintf(os.Stderr, "%s: INVALID: %s\n", w.name, n)
		}
		results[w.name] = encode(rep, trace)
	}
	enc := json.NewEncoder(os.Stdout)
	if name != "all" {
		return enc.Encode(results[name])
	}
	return enc.Encode(results)
}

// runOne executes one run of one workload.
func runOne(w *workload, seed uint64, seconds float64, trace int, outDir string) (*report, error) {
	if trace != 0 {
		return runTraced(w, seed, seconds, outDir)
	}
	return runUntraced(w, seed, seconds, setups)
}

// encode attaches the catalogue's units and keeps exactly the metrics
// of the run's kind.
func encode(rep *report, trace int) result {
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	out := result{Correct: rep.Correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: rep.Metrics[d.Name], Unit: d.Unit}
	}
	return out
}
