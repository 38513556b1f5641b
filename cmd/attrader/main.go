// Command attrader regenerates the tables and figures of the
// AccuracyTrader paper (ICPP 2016) from the Go reproduction, plus the
// repository's extension experiments.
//
// Usage:
//
//	attrader -exp list                 # show available experiments
//	attrader -exp <name>               # run one experiment
//	attrader -exp all                  # everything in catalogue order
//
// The experiment catalogue is one registry (internal/experiments.Registry):
// every entry names itself, runs, renders its report and states its
// contracts. This command only lists entries, runs them, and turns a
// violated contract into a non-zero exit; a test asserts EXPERIMENTS.md
// and README.md document every entry.
//
// Scale flags shrink or grow the reproduction; defaults regenerate all
// shapes in a few minutes on a laptop.
//
// The networked serving layer deploys as separate processes:
//
//	attrader -serve component -workload agg -listen 127.0.0.1:7101
//	attrader -serve aggregator -workload agg -peers 127.0.0.1:7101,127.0.0.1:7102
//
// Component processes build their workload's shards deterministically
// from the scale flags (every process started with the same flags
// serves the same data) and answer sub-operations until interrupted.
// The aggregator process connects to its peers, verifies one
// round-trip, then either drives an open-loop measurement session and
// exits (the default), or — with -listen — serves composed replies to
// wire-protocol clients until interrupted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"accuracytrader/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "list", "experiment to run (list|all|"+strings.Join(experiments.Names(), "|")+")")
		quick   = flag.Bool("quick", false, "use the reduced test-size scale")
		comps   = flag.Int("components", 0, "override simulated component count")
		shards  = flag.Int("shards", 0, "override real data shard count")
		session = flag.Float64("session", 0, "override session seconds per arrival rate")
		samples = flag.Int("samples", 0, "override accuracy samples per run")
		seed    = flag.Uint64("seed", 0, "override random seed")

		serve    = flag.String("serve", "", "network role: component|aggregator|client (empty = run -exp)")
		workload = flag.String("workload", "agg", "workload served by -serve: agg|agglive|cf|search (agglive: agg over live, ingesting stores)")
		listen   = flag.String("listen", "", "listen address (component server, or aggregator front server)")
		peers    = flag.String("peers", "", "comma-separated component addresses (aggregator), or the front server address (client)")
		rate     = flag.Float64("rate", 40, "client / aggregator measurement: open-loop request rate per second")
		tenant   = flag.String("tenant", "", "tenant tag stamped on generated load (client and aggregator measurement roles), propagated on the wire for per-tenant cost attribution")
		admin    = flag.String("admin", "", "admin plane listen address for -serve roles (/metrics, /healthz, /traces, /slo, /audit, /costs, /frontier, /debug/pprof, /debug/profiles; also enables request tracing, SLO tracking, ground-truth auditing, cost attribution and anomaly-triggered profiling on the front server)")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *comps > 0 {
		sc.Components = *comps
	}
	if *shards > 0 {
		sc.Shards = *shards
	}
	if *session > 0 {
		sc.SessionSeconds = *session
	}
	if *samples > 0 {
		sc.AccuracySamples = *samples
	}
	if *seed > 0 {
		sc.Seed = *seed
	}

	var err error
	if *serve != "" {
		err = runServe(*serve, *workload, *listen, *peers, *admin, *tenant, *rate, sc)
	} else {
		err = run(os.Stdout, experiments.Registry(), *exp, sc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrader:", err)
		os.Exit(1)
	}
}

// run executes -exp over a catalogue: "list" prints it, "all" runs every
// entry in catalogue order, anything else that one entry. A section is
// a banner, the report's rendering, its contract check and a timing
// line. Finished reports are kept for the rest of the invocation, so
// every distinct run executes once: an alias prints nothing its target
// already printed, and a composed entry reads its parts from the kept
// reports (computing them silently when it is asked for alone). A
// violated contract or a failed Run does not stop the invocation: every
// entry runs, a run of more than one ends with a table of every
// contract's verdict, and the error joins every failure.
func run(out io.Writer, reg []experiments.Experiment, exp string, sc experiments.Scale) error {
	byName := map[string]experiments.Experiment{}
	for _, e := range reg {
		byName[e.Name] = e
	}
	todo := reg
	if e, ok := byName[exp]; ok {
		todo = []experiments.Experiment{e}
	} else if exp != "all" {
		fmt.Fprintln(out, "experiments (run one with -exp <name>, or -exp all):")
		for _, e := range reg {
			fmt.Fprintf(out, "  %-12s %-10s %s\n", e.Name, e.Artifact, e.About)
		}
		if exp == "list" {
			return nil
		}
		// A typo in a script must fail loudly AND helpfully: the
		// catalogue above, then a non-zero exit through the error path.
		return fmt.Errorf("unknown experiment %q", exp)
	}

	kept := map[string]experiments.Report{}
	ran := map[string]bool{} // an alias of an entry whose Run erred does not run it again
	var report func(e experiments.Experiment) (experiments.Report, error)
	report = func(e experiments.Experiment) (r experiments.Report, err error) {
		if done, ok := kept[e.Name]; ok {
			return done, nil
		}
		if e.Compose == nil {
			r, err = e.Run(sc)
		} else {
			from := make([]experiments.Report, len(e.From))
			for i, name := range e.From {
				if from[i], err = report(byName[name]); err != nil {
					return nil, err
				}
			}
			r, err = e.Compose(sc, from)
		}
		if err == nil {
			kept[e.Name] = r
		}
		return r, err
	}
	var failed []error
	var verdicts strings.Builder
	for _, e := range todo {
		if e.AliasOf != "" {
			e = byName[e.AliasOf]
		}
		if _, printed := kept[e.Name]; printed || ran[e.Name] {
			continue
		}
		ran[e.Name] = true
		t0 := time.Now()
		fmt.Fprintf(out, "== %s ==\n", e.Title)
		r, err := report(e)
		if err != nil {
			fmt.Fprintf(&verdicts, "  %-14s %-28s ERROR  %v\n", e.Name, "-", err)
		} else {
			fmt.Fprintln(out, r.Render())
			if c, ok := r.(interface{ Contracts() []experiments.Contract }); ok {
				for _, k := range c.Contracts() {
					mark := "ok"
					if !k.OK {
						mark = "FAIL"
					}
					fmt.Fprintf(&verdicts, "  %-14s %-28s %s\n", e.Name, k.Name, mark)
				}
			}
			err = experiments.Check(r)
		}
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Fprintf(out, "[%s took %.1fs]\n\n", e.Title, time.Since(t0).Seconds())
	}
	if len(ran) > 1 {
		fmt.Fprintf(out, "== verdicts ==\n%s%d of %d experiment(s) failed\n", verdicts.String(), len(failed), len(ran))
	}
	return errors.Join(failed...)
}
