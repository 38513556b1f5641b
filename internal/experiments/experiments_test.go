package experiments

import (
	"math"
	"testing"
)

// The experiment tests assert the qualitative results the paper reports —
// who wins, where the crossover falls, orders of magnitude — at
// QuickScale, so `go test ./...` validates the full reproduction pipeline
// in seconds.

func buildCF(t *testing.T) *CFService {
	t.Helper()
	svc, err := BuildCFService(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func buildSearch(t *testing.T) *SearchService {
	t.Helper()
	svc, err := BuildSearchService(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestCFServiceShape(t *testing.T) {
	svc := buildCF(t)
	sc := svc.Scale
	if len(svc.Comps) != sc.Shards {
		t.Fatalf("shards = %d", len(svc.Comps))
	}
	if len(svc.Work) != sc.Components {
		t.Fatalf("work models = %d", len(svc.Work))
	}
	for c := 0; c < sc.Components; c++ {
		w := svc.Work[c]
		if w.FullUnits <= 0 || w.NumGroups <= 1 {
			t.Fatalf("component %d work = %+v", c, w)
		}
		// The synopsis must be much smaller than the full scan.
		if w.SynopsisUnits*4 > w.FullUnits {
			t.Fatalf("component %d synopsis not small: %+v", c, w)
		}
	}
}

func TestCFComparisonReproducesTable12Shape(t *testing.T) {
	svc := buildCF(t)
	res, err := RunCFComparison(svc, []float64{20, 100})
	if err != nil {
		t.Fatal(err)
	}
	light, heavy := 0, 1
	// Basic explodes under overload (orders of magnitude).
	if res.BasicTail[heavy] < 10*res.BasicTail[light] {
		t.Fatalf("no overload blow-up: light %v heavy %v", res.BasicTail[light], res.BasicTail[heavy])
	}
	// AccuracyTrader stays near the deadline at both loads.
	for _, v := range res.ATTail {
		if v > svc.Scale.DeadlineMs+20 {
			t.Fatalf("AccuracyTrader tail %v far above deadline", v)
		}
	}
	// Under overload AccuracyTrader beats the exact techniques by >10x.
	if res.ATTail[heavy]*10 > res.BasicTail[heavy] || res.ATTail[heavy]*10 > res.ReissueTail[heavy] {
		t.Fatalf("AT reduction too small: AT %v basic %v reissue %v",
			res.ATTail[heavy], res.BasicTail[heavy], res.ReissueTail[heavy])
	}
	// Partial execution's loss collapses under overload; AT's stays small.
	if res.PartialLoss[heavy] < 50 {
		t.Fatalf("partial loss %v too small under overload", res.PartialLoss[heavy])
	}
	if res.ATLoss[heavy] > 20 {
		t.Fatalf("AT loss %v too large under overload", res.ATLoss[heavy])
	}
	if res.ATLoss[heavy] >= res.PartialLoss[heavy] {
		t.Fatal("AT loss should be far below partial execution's")
	}
	// AT processes fewer sets as the load grows (adaptation).
	if res.ATSetsMean[heavy] >= res.ATSetsMean[light] {
		t.Fatalf("no adaptation: sets %v -> %v", res.ATSetsMean[light], res.ATSetsMean[heavy])
	}
	// Renderings include the headline rows.
	if s := res.RenderTable1(); len(s) < 100 {
		t.Fatal("table 1 render empty")
	}
	if s := res.RenderTable2(); len(s) < 100 {
		t.Fatal("table 2 render empty")
	}
}

func TestFig3UpdatingFasterThanCreation(t *testing.T) {
	f3, err := RunFig3(QuickScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Percents) != 10 {
		t.Fatalf("percents = %v", f3.Percents)
	}
	// Incremental updates must be faster than full creation on average
	// (the paper's first Fig. 3 finding). Individual points are wall-time
	// measurements and can be perturbed by co-running test packages, so
	// the assertion uses the means.
	var addSum, chSum float64
	for i := range f3.Percents {
		addSum += f3.AddMs[i]
		chSum += f3.ChangeMs[i]
	}
	if addSum/10 >= f3.CreationMs || chSum/10 >= f3.CreationMs {
		t.Fatalf("mean update not faster than creation: add=%v change=%v create=%v",
			addSum/10, chSum/10, f3.CreationMs)
	}
	if len(f3.Render()) < 100 {
		t.Fatal("render empty")
	}
}

func TestFig4SectionsDecrease(t *testing.T) {
	cfSvc := buildCF(t)
	sSvc := buildSearch(t)
	f4, err := RunFig4(cfSvc, sSvc, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Top sections must hold far more accuracy-relevant points than the
	// bottom sections (paper Fig. 4: monotone decrease).
	cfTop := f4.SectionsCF[0] + f4.SectionsCF[1]
	cfBottom := f4.SectionsCF[8] + f4.SectionsCF[9]
	if cfTop < 2*cfBottom {
		t.Fatalf("CF sections not concentrated: top %v bottom %v", cfTop, cfBottom)
	}
	sTop := f4.SectionsSearch[0] + f4.SectionsSearch[1]
	sBottom := f4.SectionsSearch[8] + f4.SectionsSearch[9]
	if sTop < 5*sBottom+10 {
		t.Fatalf("search sections not concentrated: top %v bottom %v", sTop, sBottom)
	}
	// The paper's imax=40% rationale: the top four sections hold almost
	// all actual top-10 pages.
	if f4.TopSectionsShare(4) < 80 {
		t.Fatalf("top-4 share %v below 80%%", f4.TopSectionsShare(4))
	}
	if len(f4.Render()) < 100 {
		t.Fatal("render empty")
	}
}

func TestHourFiguresShapes(t *testing.T) {
	svc := buildSearch(t)
	hf, err := RunHourFigures(svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hf.Windows) != 3 {
		t.Fatalf("windows = %d", len(hf.Windows))
	}
	for i, hour := range hf.Hours {
		w := hf.Windows[i]
		if len(w.Arrivals) == 0 {
			t.Fatalf("hour %d: no arrivals", hour)
		}
		// AccuracyTrader's overall tail stays near the deadline while the
		// exact techniques run in the seconds under daytime load.
		atTail := TailOverall(w.AT, 99.9)
		if atTail > svc.Scale.DeadlineMs+25 {
			t.Fatalf("hour %d: AT tail %v", hour, atTail)
		}
		baTail := TailOverall(w.Basic, 99.9)
		if baTail < 5*atTail {
			t.Fatalf("hour %d: basic %v vs AT %v — expected >5x gap", hour, baTail, atTail)
		}
		// Accuracy: AT loses much less than partial execution.
		if pl, al := w.MeanLoss("partial"), w.MeanLoss("at"); al >= pl {
			t.Fatalf("hour %d: AT loss %v not below partial %v", hour, al, pl)
		}
	}
	// Hour 9 ramps: the second half must be busier than the first.
	w9 := hf.Windows[0]
	rates := w9.MinuteRate(hf.Bins)
	first, second := 0.0, 0.0
	for i, r := range rates {
		if i < len(rates)/2 {
			first += r
		} else {
			second += r
		}
	}
	if second <= first {
		t.Fatalf("hour 9 not ramping: %v then %v", first, second)
	}
	if len(hf.RenderFig5()) < 200 || len(hf.RenderFig6()) < 100 {
		t.Fatal("renders empty")
	}
}

func TestDayFiguresShapes(t *testing.T) {
	svc := buildSearch(t)
	day, err := RunDayFigures(svc)
	if err != nil {
		t.Fatal(err)
	}
	// Night trough vs daytime rates.
	if day.HourRate[4] > day.HourRate[20]/3 {
		t.Fatalf("diurnal shape wrong: hour5 %v hour21 %v", day.HourRate[4], day.HourRate[20])
	}
	// Daytime hours: basic explodes, AT pinned near deadline.
	for _, h := range []int{10, 15, 20} {
		if day.BasicTail[h] < 500 {
			t.Fatalf("hour %d basic %v not saturated", h+1, day.BasicTail[h])
		}
		if day.ATTail[h] > svc.Scale.DeadlineMs+25 {
			t.Fatalf("hour %d AT %v above bound", h+1, day.ATTail[h])
		}
		if day.PartialLoss[h] < 30 {
			t.Fatalf("hour %d partial loss %v too small", h+1, day.PartialLoss[h])
		}
		if day.ATLoss[h] > 25 {
			t.Fatalf("hour %d AT loss %v too large", h+1, day.ATLoss[h])
		}
	}
	// Night hours stay light for the exact techniques too.
	for _, h := range []int{3, 4} {
		if day.BasicTail[h] > 2000 {
			t.Fatalf("hour %d basic %v implausibly heavy at night", h+1, day.BasicTail[h])
		}
	}
	if len(day.RenderFig7()) < 200 || len(day.RenderFig8()) < 100 {
		t.Fatal("renders empty")
	}
}

func TestCreationReport(t *testing.T) {
	rep, err := RunCreation(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CFPoints <= 0 || rep.SearchPoints <= 0 {
		t.Fatal("no points")
	}
	if rep.CFGroups <= 1 || rep.SearchGroups <= 1 {
		t.Fatalf("groups: %d/%d", rep.CFGroups, rep.SearchGroups)
	}
	if rep.CFMeanGroupSize < 2 || rep.SearchMeanGroupSize < 2 {
		t.Fatal("groups too small")
	}
	if rep.CFStep1Ms < 0 || rep.CFStep2Ms < 0 || rep.CFStep3Ms < 0 {
		t.Fatalf("negative timings: %+v", rep)
	}
	if len(rep.Render()) < 100 {
		t.Fatal("render empty")
	}
}

func TestHeadlineRatios(t *testing.T) {
	svc := buildCF(t)
	cfc, err := RunCFComparison(svc, []float64{20, 60, 100})
	if err != nil {
		t.Fatal(err)
	}
	sSvc := buildSearch(t)
	day, err := RunDayFigures(sSvc)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(cfc, day, sSvc.Scale.SearchPeakRate)
	if h.CFTailReductionVsReissue < 5 {
		t.Fatalf("CF tail reduction %v too small", h.CFTailReductionVsReissue)
	}
	if h.SearchTailReductionVsReissue < 5 {
		t.Fatalf("search tail reduction %v too small", h.SearchTailReductionVsReissue)
	}
	if h.CFLossReductionVsPartial < 3 {
		t.Fatalf("CF loss reduction %v too small", h.CFLossReductionVsPartial)
	}
	if h.SearchLossReductionVsPartial < 3 {
		t.Fatalf("search loss reduction %v too small", h.SearchLossReductionVsPartial)
	}
	if math.IsNaN(h.CFATLoss) || h.CFATLoss > 25 {
		t.Fatalf("CF AT loss %v", h.CFATLoss)
	}
	if len(h.Render()) < 100 {
		t.Fatal("render empty")
	}
}

func TestWindowArrivalsFollowPattern(t *testing.T) {
	svc := buildSearch(t)
	hf, err := RunHourFigures(svc)
	if err != nil {
		t.Fatal(err)
	}
	// Hour 24 declines: first half busier than second.
	w := hf.Windows[2]
	rates := w.MinuteRate(hf.Bins)
	first, second := 0.0, 0.0
	for i, r := range rates {
		if i < len(rates)/2 {
			first += r
		} else {
			second += r
		}
	}
	if first <= second {
		t.Fatalf("hour 24 not declining: %v then %v", first, second)
	}
}

func TestOverloadSweepFrontendWins(t *testing.T) {
	sw, err := RunOverload(QuickScale(), []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	for _, p := range sw.Points {
		if len(p.Rows) != 3 {
			t.Fatalf("rows = %d", len(p.Rows))
		}
	}
	// Below saturation everyone keeps up and the exact techniques
	// deliver full accuracy.
	calm := sw.Points[0]
	basic, partial, fe := calm.Rows[0], calm.Rows[1], calm.Rows[2]
	if basic.GoodputPerSec < 0.8*calm.RatePerSec {
		t.Fatalf("calm basic goodput %v at rate %v", basic.GoodputPerSec, calm.RatePerSec)
	}
	if basic.ClassAccuracy[0] != 1 || partial.ClassAccuracy[2] != 1 {
		t.Fatal("calm exact techniques not fully accurate")
	}
	// At 2x saturation the frontend sustains far higher goodput at a
	// far lower component p99.9 than both exact techniques, while
	// still answering Exact-class requests exactly and Bounded-class
	// requests above their floor.
	hot := sw.Points[1]
	basic, partial, fe = hot.Rows[0], hot.Rows[1], hot.Rows[2]
	if fe.GoodputPerSec < 2*basic.GoodputPerSec || fe.GoodputPerSec < 2*partial.GoodputPerSec {
		t.Fatalf("overloaded frontend goodput %v vs basic %v / partial %v",
			fe.GoodputPerSec, basic.GoodputPerSec, partial.GoodputPerSec)
	}
	if fe.GoodputPerSec < 0.5*hot.RatePerSec {
		t.Fatalf("overloaded frontend goodput %v collapsed at rate %v", fe.GoodputPerSec, hot.RatePerSec)
	}
	if fe.P999Ms >= basic.P999Ms/2 {
		t.Fatalf("frontend p99.9 %v not well below basic %v", fe.P999Ms, basic.P999Ms)
	}
	if fe.ClassAccuracy[0] != 1 {
		t.Fatalf("exact class accuracy %v under overload", fe.ClassAccuracy[0])
	}
	if fe.ClassAccuracy[1] < 0.9 {
		t.Fatalf("bounded class accuracy %v below its floor", fe.ClassAccuracy[1])
	}
	// Best-effort requests pay the degradation; bounded may not go
	// below them.
	if fe.ClassAccuracy[2] > fe.ClassAccuracy[1] {
		t.Fatalf("best-effort %v above bounded %v", fe.ClassAccuracy[2], fe.ClassAccuracy[1])
	}
	if len(sw.Render()) < 200 {
		t.Fatal("render empty")
	}
}
