package experiments

// Experiment is one catalogue entry: what an experiment is called, what
// it regenerates, and how its report is produced. The registry is the
// single source of truth for the catalogue — cmd/attrader lists, runs,
// renders and checks experiments from it alone, and registry_test.go
// asserts EXPERIMENTS.md and README.md document every entry.
type Experiment struct {
	Name     string // the -exp flag value
	Artifact string // the paper artifact it regenerates, or "extension"
	About    string // one-line description
	Title    string // section banner (an alias prints under its target's)

	// Exactly one of Run, AliasOf and Compose says where the report
	// comes from: computed at a scale, shared with the earlier entry
	// AliasOf names, or composed from the reports of the earlier
	// entries From names.
	Run     func(Scale) (Report, error)
	AliasOf string
	From    []string
	Compose func(sc Scale, from []Report) (Report, error)
}

var (
	// cfRates are the arrival rates (req/s) of Tables 1-2.
	cfRates = []float64{20, 40, 60, 80, 100}
	// overloadMultipliers are the offered loads of the overload sweeps,
	// as multiples of the exact-processing saturation rate.
	overloadMultipliers = []float64{0.5, 1, 1.5, 2, 3}
)

const (
	fig3Repeats  = 3   // repeats per Figure 3 scenario
	fig4Requests = 200 // requests per service in Figure 4
)

// Registry returns the experiment catalogue in canonical run order (the
// order `-exp all` executes; aliases and composed entries follow the
// entries they read).
func Registry() []Experiment {
	return []Experiment{
		{Name: "creation", Artifact: "§3 text", About: "synopsis creation overheads per service",
			Title: "Synopsis creation overheads",
			Run:   func(sc Scale) (Report, error) { return RunCreation(sc) }},
		{Name: "fig3", Artifact: "Figure 3", About: "incremental synopsis updating overheads",
			Title: "Figure 3 (synopsis updating)",
			Run:   func(sc Scale) (Report, error) { return RunFig3(sc, fig3Repeats) }},
		{Name: "fig4", Artifact: "Figure 4", About: "accuracy vs fraction of ranked sets processed",
			Title: "Figure 4 (synopsis effectiveness)",
			Run: func(sc Scale) (Report, error) {
				cfSvc, err := BuildCFService(sc)
				if err != nil {
					return nil, err
				}
				sSvc, err := BuildSearchService(sc)
				if err != nil {
					return nil, err
				}
				return RunFig4(cfSvc, sSvc, fig4Requests)
			}},
		{Name: "table1", Artifact: "Table 1", About: "CF recommender latency across arrival rates",
			Title: "Tables 1-2 (CF recommender workloads)",
			Run: func(sc Scale) (Report, error) {
				svc, err := BuildCFService(sc)
				if err != nil {
					return nil, err
				}
				return RunCFComparison(svc, cfRates)
			}},
		{Name: "table2", Artifact: "Table 2", About: "CF recommender accuracy across arrival rates", AliasOf: "table1"},
		{Name: "fig5", Artifact: "Figure 5", About: "hours 9/10/24 search latency panels",
			Title: "Figures 5-6 (hours 9/10/24, search workloads)",
			Run: func(sc Scale) (Report, error) {
				svc, err := BuildSearchService(sc)
				if err != nil {
					return nil, err
				}
				return RunHourFigures(svc)
			}},
		{Name: "fig6", Artifact: "Figure 6", About: "hours 9/10/24 search accuracy panels", AliasOf: "fig5"},
		{Name: "fig7", Artifact: "Figure 7", About: "24-hour search latency",
			Title: "Figures 7-8 (24-hour search workloads)",
			Run: func(sc Scale) (Report, error) {
				svc, err := BuildSearchService(sc)
				if err != nil {
					return nil, err
				}
				return RunDayFigures(svc)
			}},
		{Name: "fig8", Artifact: "Figure 8", About: "24-hour search accuracy", AliasOf: "fig7"},
		{Name: "headline", Artifact: "§4.3 text", About: "headline ratios (tail reduction, accuracy loss)",
			Title: "Headline results", From: []string{"table1", "fig7"},
			Compose: func(sc Scale, from []Report) (Report, error) {
				return ComputeHeadline(from[0].(*CFComparison), from[1].(*DayFigures), sc.SearchPeakRate), nil
			}},
		{Name: "overload", Artifact: "extension", About: "accuracy-aware frontend overload sweep (search-shaped)",
			Title: "Overload sweep (accuracy-aware frontend extension)",
			Run:   func(sc Scale) (Report, error) { return RunOverload(sc, overloadMultipliers) }},
		{Name: "aggcompare", Artifact: "extension", About: "aggregation workload: ladder accuracy/latency + frontend overload",
			Title: "Aggregation workload (ladder accuracy/latency + frontend overload)",
			Run:   func(sc Scale) (Report, error) { return RunAggCompare(sc, overloadMultipliers) }},
		{Name: "netcompare", Artifact: "extension", About: "networked serving layer over loopback TCP vs the in-process runtime",
			Title: "Networked serving layer (loopback sockets vs in-process runtime)",
			Run:   func(sc Scale) (Report, error) { return RunNetCompare(sc) }},
		{Name: "cachecompare", Artifact: "extension", About: "accuracy-aware result cache vs no-cache frontend under Zipf load",
			Title: "Result cache (accuracy-tagged cache vs no-cache frontend under Zipf load)",
			Run:   func(sc Scale) (Report, error) { return RunCacheCompare(sc) }},
		{Name: "tracecompare", Artifact: "extension", About: "end-to-end decision tracing: cross-process stitching, budget accounting",
			Title: "Decision tracing (stitching, budget accounting)",
			Run:   func(sc Scale) (Report, error) { return RunTraceCompare(sc) }},
		{Name: "faultcompare", Artifact: "extension", About: "failure-domain hardening: kill/stall/heal sweep with breakers and accuracy-aware degradation",
			Title: "Failure-domain hardening (kill/stall/heal sweep)",
			Run:   func(sc Scale) (Report, error) { return RunFaultCompare(sc) }},
		{Name: "ingestcompare", Artifact: "extension", About: "live synopsis updates: epoch-swapped streaming ingestion vs frozen rebuilds, sampling honesty pinned",
			Title: "Live synopsis updates (streaming ingestion sweep)",
			Run:   func(sc Scale) (Report, error) { return RunIngestCompare(sc) }},
		{Name: "auditcompare", Artifact: "extension", About: "accuracy audit plane: ground-truth replay auditing, drift safety, tail-based trace retention",
			Title: "Accuracy audit plane (ground-truth replay, drift safety, tail retention)",
			Run:   func(sc Scale) (Report, error) { return RunAuditCompare(sc) }},
		{Name: "costcompare", Artifact: "extension", About: "cost attribution plane: per-tenant resource accounting, accuracy-vs-cost frontier",
			Title: "Cost attribution plane (per-request accounting, frontier)",
			Run:   func(sc Scale) (Report, error) { return RunCostCompare(sc) }},
	}
}

// Names returns the registered experiment names in canonical order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}
