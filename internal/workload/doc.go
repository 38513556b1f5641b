// Package workload generates the evaluation workloads of the paper:
// a MovieLens-like clustered rating dataset for the CF recommender, a
// Sogou-like topical web corpus and query stream for the search engine,
// and the arrival processes — fixed-rate Poisson for Tables 1-2 and a
// 24-hour diurnal pattern shaped like the Sogou query log for Figures 5-8.
//
// Substitution note (EXPERIMENTS.md § Scale and data): the real MovieLens/Sogou datasets are
// replaced by generators that reproduce the structural properties the
// experiments depend on — clusters of like-minded users / topically
// similar pages (so synopses aggregate meaningfully) and realistic
// diurnal load shapes. All accuracy numbers are computed by running the
// real CF/search implementations on this data.
package workload
