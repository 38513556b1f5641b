package audit

import (
	"sort"
)

// tableKey identifies one calibration table: a workload at one ladder
// level.
type tableKey struct {
	workload string
	level    int16
}

// accuracyBuckets are the realized-accuracy histogram edges. The last
// implicit bucket catches exactly-1.0 (and any numerically >1) scores.
var accuracyBuckets = []float64{
	0.50, 0.80, 0.90, 0.95, 0.98, 0.99, 0.995, 0.999, 1.0,
}

// table accumulates verdicts for one (workload, level). The worker is
// the only writer; the auditor's mutex guards reader snapshots.
type table struct {
	samples       int64
	violations    int64
	boundsTotal   int64
	boundsCovered int64
	sumRealized   float64
	sumClaimed    float64
	hist          []int64 // len(accuracyBuckets)+1, realized accuracy
}

// TableView is one calibration table as served by /audit.
type TableView struct {
	Workload string `json:"workload"`
	Level    int16  `json:"level"`
	Samples  int64  `json:"samples"`
	// FloorViolations counts Bounded samples whose realized accuracy
	// fell below their floor.
	FloorViolations int64 `json:"floor_violations"`
	// BoundCoverage is covered/total over the claimed CLT bounds; it
	// should sit at or above the nominal confidence (-1 when the
	// workload ships no bounds).
	BoundCoverage float64 `json:"bound_coverage"`
	BoundsTotal   int64   `json:"bounds_total"`
	BoundsCovered int64   `json:"bounds_covered"`
	// MeanRealized / MeanClaimed expose calibration drift directly:
	// claimed far above realized means the accuracy table is stale.
	MeanRealized float64 `json:"mean_realized_accuracy"`
	MeanClaimed  float64 `json:"mean_claimed_accuracy"`
	// AccuracyHistogram counts realized accuracy per bucket; bucket i
	// is (edge[i-1], edge[i]], with a final bucket above the last edge.
	AccuracyEdges     []float64 `json:"accuracy_edges"`
	AccuracyHistogram []int64   `json:"accuracy_histogram"`
}

// Report is the /audit document.
type Report struct {
	Stats  Stats       `json:"stats"`
	Tables []TableView `json:"tables"`
}

// record folds one verdict into its calibration table. Called from the
// worker only.
func (a *Auditor) record(s *Sample, v Verdict) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := tableKey{s.Workload, s.Level}
	t := a.tables[key]
	if t == nil {
		t = &table{hist: make([]int64, len(accuracyBuckets)+1)}
		a.tables[key] = t
	}
	t.samples++
	if v.FloorViolated {
		t.violations++
	}
	t.boundsTotal += int64(v.BoundsTotal)
	t.boundsCovered += int64(v.BoundsCovered)
	t.sumRealized += v.RealizedAccuracy
	t.sumClaimed += s.ClaimedAccuracy
	// SearchFloat64s returns the smallest i with edge[i] >= v, which is
	// exactly the (edge[i-1], edge[i]] bucket; above the last edge it
	// returns len(edges), the overflow bucket.
	b := sort.SearchFloat64s(accuracyBuckets, v.RealizedAccuracy)
	t.hist[min(b, len(t.hist)-1)]++
}

// Tables snapshots every calibration table, sorted by workload then
// level (coarsest first). Nil-safe.
func (a *Auditor) Tables() []TableView {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]TableView, 0, len(a.tables))
	for key, t := range a.tables {
		tv := TableView{
			Workload:          key.workload,
			Level:             key.level,
			Samples:           t.samples,
			FloorViolations:   t.violations,
			BoundsTotal:       t.boundsTotal,
			BoundsCovered:     t.boundsCovered,
			BoundCoverage:     -1,
			AccuracyEdges:     accuracyBuckets,
			AccuracyHistogram: append([]int64(nil), t.hist...),
		}
		if t.boundsTotal > 0 {
			tv.BoundCoverage = float64(t.boundsCovered) / float64(t.boundsTotal)
		}
		if t.samples > 0 {
			tv.MeanRealized = t.sumRealized / float64(t.samples)
			tv.MeanClaimed = t.sumClaimed / float64(t.samples)
		}
		out = append(out, tv)
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// Report builds the /audit document. Nil-safe.
func (a *Auditor) Report() Report {
	if a == nil {
		return Report{}
	}
	return Report{Stats: a.Stats(), Tables: a.Tables()}
}
