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
// The experiment catalogue is generated from a single registry
// (internal/experiments.Registry), which `-exp list` prints and
// EXPERIMENTS.md documents; a test asserts the three cannot drift.
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
		exp      = flag.String("exp", "list", "experiment to run (list|all|"+strings.Join(experiments.Names(), "|")+")")
		quick    = flag.Bool("quick", false, "use the reduced test-size scale")
		comps    = flag.Int("components", 0, "override simulated component count")
		shards   = flag.Int("shards", 0, "override real data shard count")
		session  = flag.Float64("session", 0, "override session seconds per arrival rate")
		samples  = flag.Int("samples", 0, "override accuracy samples per run")
		seed     = flag.Uint64("seed", 0, "override random seed")
		repeats  = flag.Int("repeats", 3, "fig3 repeats per scenario")
		requests = flag.Int("requests", 200, "fig4 requests per service")

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
		err = run(os.Stdout, *exp, sc, *repeats, *requests)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrader:", err)
		os.Exit(1)
	}
}

// runner executes one registered experiment at a scale.
type runner func(sc experiments.Scale, repeats, requests int) error

// runners maps every registered experiment name to its implementation.
// TestRunnersCoverRegistry asserts the map and the registry agree, so a
// new experiment cannot be registered without being runnable (or vice
// versa). Aliases that share one run (table1/table2, fig5/fig6,
// fig7/fig8) map to the same function and are deduplicated by `all`.
var runners = map[string]runner{
	"creation":      func(sc experiments.Scale, _, _ int) error { return runCreation(sc) },
	"fig3":          func(sc experiments.Scale, repeats, _ int) error { return runFig3(sc, repeats) },
	"fig4":          func(sc experiments.Scale, _, requests int) error { return runFig4(sc, requests) },
	"table1":        func(sc experiments.Scale, _, _ int) error { return runTables(sc) },
	"table2":        func(sc experiments.Scale, _, _ int) error { return runTables(sc) },
	"fig5":          func(sc experiments.Scale, _, _ int) error { return runHours(sc) },
	"fig6":          func(sc experiments.Scale, _, _ int) error { return runHours(sc) },
	"fig7":          func(sc experiments.Scale, _, _ int) error { _, err := runDay(sc, true); return err },
	"fig8":          func(sc experiments.Scale, _, _ int) error { _, err := runDay(sc, true); return err },
	"headline":      func(sc experiments.Scale, _, _ int) error { return runHeadline(sc) },
	"overload":      func(sc experiments.Scale, _, _ int) error { return runOverload(sc) },
	"aggcompare":    func(sc experiments.Scale, _, _ int) error { return runAggCompare(sc) },
	"netcompare":    func(sc experiments.Scale, _, _ int) error { return runNetCompare(sc) },
	"cachecompare":  func(sc experiments.Scale, _, _ int) error { return runCacheCompare(sc) },
	"tracecompare":  func(sc experiments.Scale, _, _ int) error { return runTraceCompare(sc) },
	"faultcompare":  func(sc experiments.Scale, _, _ int) error { return runFaultCompare(sc) },
	"ingestcompare": func(sc experiments.Scale, _, _ int) error { return runIngestCompare(sc) },
	"auditcompare":  func(sc experiments.Scale, _, _ int) error { return runAuditCompare(sc) },
	"costcompare":   func(sc experiments.Scale, _, _ int) error { return runCostCompare(sc) },
}

// aliasOf collapses experiment aliases onto the run they share, so
// `-exp all` executes each run once.
func aliasOf(name string) string {
	switch name {
	case "table2":
		return "table1"
	case "fig6":
		return "fig5"
	case "fig8":
		return "fig7"
	default:
		return name
	}
}

func run(out io.Writer, exp string, sc experiments.Scale, repeats, requests int) error {
	switch exp {
	case "list":
		printCatalogue(out)
		return nil
	case "all":
		done := map[string]bool{}
		for _, name := range experiments.Names() {
			key := aliasOf(name)
			if done[key] {
				continue
			}
			done[key] = true
			if err := runners[name](sc, repeats, requests); err != nil {
				return err
			}
		}
		return nil
	default:
		r, ok := runners[exp]
		if !ok {
			// A typo in a script must fail loudly AND helpfully: print
			// the catalogue, then exit non-zero through the error path.
			printCatalogue(out)
			return fmt.Errorf("unknown experiment %q", exp)
		}
		return r(sc, repeats, requests)
	}
}

// printCatalogue writes the registry-generated experiment list.
func printCatalogue(out io.Writer) {
	fmt.Fprintln(out, "experiments (run one with -exp <name>, or -exp all):")
	for _, e := range experiments.Registry() {
		fmt.Fprintf(out, "  %-12s %-10s %s\n", e.Name, e.Artifact, e.About)
	}
}

func timed(name string, f func() error) error {
	t0 := time.Now()
	fmt.Printf("== %s ==\n", name)
	if err := f(); err != nil {
		return err
	}
	fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(t0).Seconds())
	return nil
}

func runTables(sc experiments.Scale) error {
	return timed("Tables 1-2 (CF recommender workloads)", func() error {
		svc, err := experiments.BuildCFService(sc)
		if err != nil {
			return err
		}
		res, err := experiments.RunCFComparison(svc, []float64{20, 40, 60, 80, 100})
		if err != nil {
			return err
		}
		fmt.Println(res.RenderTable1())
		fmt.Println(res.RenderTable2())
		return nil
	})
}

func runFig3(sc experiments.Scale, repeats int) error {
	return timed("Figure 3 (synopsis updating)", func() error {
		f3, err := experiments.RunFig3(sc, repeats)
		if err != nil {
			return err
		}
		fmt.Println(f3.Render())
		return nil
	})
}

func runFig4(sc experiments.Scale, requests int) error {
	return timed("Figure 4 (synopsis effectiveness)", func() error {
		cfSvc, err := experiments.BuildCFService(sc)
		if err != nil {
			return err
		}
		sSvc, err := experiments.BuildSearchService(sc)
		if err != nil {
			return err
		}
		f4, err := experiments.RunFig4(cfSvc, sSvc, requests)
		if err != nil {
			return err
		}
		fmt.Println(f4.Render())
		return nil
	})
}

func runHours(sc experiments.Scale) error {
	return timed("Figures 5-6 (hours 9/10/24, search workloads)", func() error {
		svc, err := experiments.BuildSearchService(sc)
		if err != nil {
			return err
		}
		hf, err := experiments.RunHourFigures(svc)
		if err != nil {
			return err
		}
		fmt.Println(hf.RenderFig5())
		fmt.Println(hf.RenderFig6())
		return nil
	})
}

func runDay(sc experiments.Scale, render bool) (*experiments.DayFigures, error) {
	var day *experiments.DayFigures
	err := timed("Figures 7-8 (24-hour search workloads)", func() error {
		svc, err := experiments.BuildSearchService(sc)
		if err != nil {
			return err
		}
		day, err = experiments.RunDayFigures(svc)
		if err != nil {
			return err
		}
		if render {
			fmt.Println(day.RenderFig7())
			fmt.Println(day.RenderFig8())
		}
		return nil
	})
	return day, err
}

func runCreation(sc experiments.Scale) error {
	return timed("Synopsis creation overheads", func() error {
		rep, err := experiments.RunCreation(sc)
		if err != nil {
			return err
		}
		fmt.Println(rep.Render())
		return nil
	})
}

func runOverload(sc experiments.Scale) error {
	return timed("Overload sweep (accuracy-aware frontend extension)", func() error {
		sw, err := experiments.RunOverload(sc, []float64{0.5, 1, 1.5, 2, 3})
		if err != nil {
			return err
		}
		fmt.Println(sw.Render())
		return nil
	})
}

func runAggCompare(sc experiments.Scale) error {
	return timed("Aggregation workload (ladder accuracy/latency + frontend overload)", func() error {
		res, err := experiments.RunAggCompare(sc, []float64{0.5, 1, 1.5, 2, 3})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	})
}

func runNetCompare(sc experiments.Scale) error {
	return timed("Networked serving layer (loopback sockets vs in-process runtime)", func() error {
		res, err := experiments.RunNetCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	})
}

func runCacheCompare(sc experiments.Scale) error {
	return timed("Result cache (accuracy-tagged cache vs no-cache frontend under Zipf load)", func() error {
		res, err := experiments.RunCacheCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	})
}

func runTraceCompare(sc experiments.Scale) error {
	return timed("Decision tracing (stitching, budget accounting, zero-cost-off)", func() error {
		res, err := experiments.RunTraceCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if !res.OK() {
			return fmt.Errorf("tracecompare contracts violated (see report above)")
		}
		return nil
	})
}

func runFaultCompare(sc experiments.Scale) error {
	return timed("Failure-domain hardening (kill/stall/heal sweep)", func() error {
		res, err := experiments.RunFaultCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if v := res.Violations(); v != 0 || !res.ZeroAllocOK {
			return fmt.Errorf("faultcompare contracts violated: %d degradation violations, zeroAlloc=%v", v, res.ZeroAllocOK)
		}
		return nil
	})
}

func runIngestCompare(sc experiments.Scale) error {
	return timed("Live synopsis updates (streaming ingestion sweep)", func() error {
		res, err := experiments.RunIngestCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if v := res.Violations(); v != 0 || !res.ZeroAllocOK || !res.WireOK {
			return fmt.Errorf("ingestcompare contracts violated: %d violations, zeroAlloc=%v, wire=%v",
				v, res.ZeroAllocOK, res.WireOK)
		}
		return nil
	})
}

func runHeadline(sc experiments.Scale) error {
	return timed("Headline results", func() error {
		cfSvc, err := experiments.BuildCFService(sc)
		if err != nil {
			return err
		}
		cfc, err := experiments.RunCFComparison(cfSvc, []float64{20, 40, 60, 80, 100})
		if err != nil {
			return err
		}
		day, err := runDay(sc, true)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ComputeHeadline(cfc, day, sc.SearchPeakRate).Render())
		return nil
	})
}

func runCostCompare(sc experiments.Scale) error {
	return timed("Cost attribution plane (per-request accounting, frontier, profiler)", func() error {
		res, err := experiments.RunCostCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if !res.OK() {
			return fmt.Errorf("costcompare contracts violated (see report above)")
		}
		return nil
	})
}

func runAuditCompare(sc experiments.Scale) error {
	return timed("Accuracy audit plane (ground-truth replay, burn rates, tail retention)", func() error {
		res, err := experiments.RunAuditCompare(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if !res.OK() {
			return fmt.Errorf("auditcompare contracts violated (see report above)")
		}
		return nil
	})
}
