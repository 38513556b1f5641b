// Package core implements the online accuracy-aware approximate processing
// module of AccuracyTrader — Algorithm 1 of the paper. A component first
// processes its synopsis, obtaining a fast initial result plus a
// correlation estimate for every aggregated data point; it then improves
// the result by processing the aggregated points' original member sets in
// descending correlation order, until a deadline or a set cap (imax) stops
// it.
//
// The algorithm is generic over the application: collaborative filtering,
// web search and aggregation plug in through the Engine interface. Time
// is abstracted behind Continue, so one loop serves wall-clock deadlines
// (the live component handlers of internal/netsvc) and set-count budgets
// (BudgetContinue, in the experiments). The discrete-event simulator,
// internal/cluster, does not call Run: it replays the same loop over its
// cost model, counting sets instead of processing them.
package core
