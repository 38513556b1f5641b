package agg

import "fmt"

// TableFromColumns wraps caller-owned columnar storage as a Table
// without copying. The ingest layer uses it for a live shard's base:
// each compaction writes fresh stratum-major columns in synopsis order,
// so base row i is synopsis position i and the scan kernels read the
// values sequentially. The caller must not mutate keys[i]/vals[i] for
// any i < len(keys) after handing them over; keys must already be
// within [0, numKeys).
func TableFromColumns(keys []int32, vals []float64, numKeys int) *Table {
	if numKeys <= 0 {
		panic("agg: table needs a positive key domain")
	}
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("agg: column length mismatch: %d keys, %d vals", len(keys), len(vals)))
	}
	return &Table{keys: keys, vals: vals, numKeys: numKeys}
}

// SynopsisFromOrder builds a synopsis over a caller-supplied stratum
// order instead of BuildSynopsis's counting-sort-plus-shuffle: rows is
// the row-id permutation in stratum-major order and off its stratum
// offsets (stratum s owns rows[off[s]:off[s+1]]; len(off) must be
// t.NumKeys()+1). Sample lengths per ladder level are BuildSynopsis's
// capped ladder over the current stratum sizes, which is the
// reservoir-maintenance step of streaming ingest: the caller keeps each
// stratum ordered by a deterministic per-row sampling priority, so
// every level-l prefix is a uniform bottom-k sample whose length tracks
// the strata as they grow. A caller
// that stores its table in that order already (the live base) passes
// the identity permutation; rows is kept, not copied.
func SynopsisFromOrder(t *Table, cfg Config, rows, off []int32) (*Synopsis, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("agg: no valid sampling rates")
	}
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("agg: empty fact table")
	}
	if len(rows) != t.NumRows() || len(off) != t.NumKeys()+1 {
		return nil, fmt.Errorf("agg: order shape %d rows/%d offsets, want %d/%d",
			len(rows), len(off), t.NumRows(), t.NumKeys()+1)
	}
	syn := &Synopsis{cfg: cfg, rows: rows, off: off}
	for s := 0; s < t.NumKeys(); s++ {
		for _, r := range rows[off[s]:off[s+1]] {
			if r < 0 || int(r) >= t.NumRows() || t.keys[r] != int32(s) {
				return nil, fmt.Errorf("agg: row %d misfiled in stratum %d", r, s)
			}
		}
	}
	syn.lens = ladderLens(off, cfg.Rates, cfg.MinSample)
	if err := syn.CheckInvariants(); err != nil {
		return nil, err
	}
	return syn, nil
}
