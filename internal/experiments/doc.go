// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment is a pure function of a Scale (the
// knobs that shrink the paper's 30-node testbed onto a laptop) returning
// a typed result with a paper-style text rendering. Registry is the
// catalogue: every entry names itself and produces its Report; a report
// that makes promises states them as Contracts, and Check judges them.
//
// Scaling approach (DESIGN.md §4): the latency experiments simulate the
// full fan-out width (108 components by default, as in the paper) on the
// discrete-event cluster; the data those components serve is backed by a
// smaller number of distinct shards of real CF/search data, cycled across
// components. Accuracy is computed by replaying the real application
// engines over exactly the sets each simulated component had time to
// process. The package also holds the paper's accuracy-loss metrics
// (metrics.go) and the co-located-interference model that slows the
// simulated components (services.go).
//
// The experiments, in Registry order: the paper's creation, fig3, fig4,
// table1/table2, fig5/fig6, fig7/fig8 and headline; the simulated
// extensions overload and aggcompare; and the seven wall-clock *compare
// experiments — netcompare, cachecompare, tracecompare, faultcompare,
// ingestcompare, auditcompare and costcompare — which deploy, drive and
// classify through the one loopback harness in serving.go (deployment,
// target.issue, waitFor) and together state the 27 named contracts.
package experiments
