package experiments

import "testing"

func TestAggServiceShape(t *testing.T) {
	svc, err := BuildAggService(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	sc := svc.Scale
	if len(svc.Comps) != sc.Shards || len(svc.Work) != sc.Components {
		t.Fatalf("shards %d work %d", len(svc.Comps), len(svc.Work))
	}
	for c := 0; c < sc.Components; c++ {
		w := svc.Work[c]
		if w.FullUnits <= 0 || w.NumGroups <= 1 {
			t.Fatalf("component %d work = %+v", c, w)
		}
		// The finest sample must still be much smaller than the shard.
		if w.SynopsisUnits*2 > w.FullUnits {
			t.Fatalf("component %d synopsis not small: %+v", c, w)
		}
		// The ladder must be ascending and end at the finest synopsis.
		for l := 1; l < len(w.SynopsisLadder); l++ {
			if w.SynopsisLadder[l] <= w.SynopsisLadder[l-1] {
				t.Fatalf("component %d ladder not ascending: %v", c, w.SynopsisLadder)
			}
		}
		if w.SynopsisLadder[len(w.SynopsisLadder)-1] != w.SynopsisUnits {
			t.Fatalf("component %d ladder top %v != synopsis %v",
				c, w.SynopsisLadder[len(w.SynopsisLadder)-1], w.SynopsisUnits)
		}
	}
}

// TestAggCompareLadderMonotone asserts the experiment's core claims:
// accuracy rises monotonically with the ladder level, Algorithm 1's
// improvement never hurts, and modeled latency grows with the level.
func TestAggCompareLadderMonotone(t *testing.T) {
	res, err := RunAggCompare(QuickScale(), []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 3 {
		t.Fatalf("only %d ladder levels", len(res.Levels))
	}
	for i, row := range res.Levels {
		if row.SynAccuracy <= 0 || row.SynAccuracy > 1 {
			t.Fatalf("level %d accuracy %v outside (0,1]", i, row.SynAccuracy)
		}
		if row.ImprovedAcc < row.SynAccuracy {
			t.Fatalf("level %d improvement hurts: %v -> %v", i, row.SynAccuracy, row.ImprovedAcc)
		}
		if i == 0 {
			continue
		}
		prev := res.Levels[i-1]
		if row.SynAccuracy <= prev.SynAccuracy {
			t.Fatalf("accuracy not increasing: level %d %v vs level %d %v",
				i, row.SynAccuracy, i-1, prev.SynAccuracy)
		}
		if row.ModelMs <= prev.ModelMs {
			t.Fatalf("model latency not increasing: level %d %v vs %v", i, row.ModelMs, prev.ModelMs)
		}
	}
	// The finest level must be accurate enough to serve Bounded{0.90}.
	finest := res.Levels[len(res.Levels)-1]
	if finest.SynAccuracy < 0.9 {
		t.Fatalf("finest level accuracy %v below the Bounded floor", finest.SynAccuracy)
	}
}

// TestAggCompareOverloadHonorsSLOs asserts the Bounded class is held at
// or above its accuracy floor, Exact requests stay exact, and the
// frontend beats the exact techniques under overload — the same shape
// as the search overload sweep, now on the third workload.
func TestAggCompareOverloadHonorsSLOs(t *testing.T) {
	res, err := RunAggCompare(QuickScale(), []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Overload
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	for _, p := range sw.Points {
		fe := p.Rows[2]
		if fe.ClassAccuracy[0] != 1 {
			t.Fatalf("%gx: exact class accuracy %v", p.Multiplier, fe.ClassAccuracy[0])
		}
		// The acceptance bar: Bounded{0.90} delivers >= its MinAccuracy.
		if fe.ClassAccuracy[1] < 0.9 {
			t.Fatalf("%gx: bounded class accuracy %v below its 0.90 floor", p.Multiplier, fe.ClassAccuracy[1])
		}
	}
	hot := sw.Points[1]
	basic, partial, fe := hot.Rows[0], hot.Rows[1], hot.Rows[2]
	if fe.GoodputPerSec < 2*basic.GoodputPerSec || fe.GoodputPerSec < 2*partial.GoodputPerSec {
		t.Fatalf("overloaded frontend goodput %v vs basic %v / partial %v",
			fe.GoodputPerSec, basic.GoodputPerSec, partial.GoodputPerSec)
	}
	if fe.P999Ms >= basic.P999Ms/2 {
		t.Fatalf("frontend p99.9 %v not well below basic %v", fe.P999Ms, basic.P999Ms)
	}
	if len(res.Render()) < 300 {
		t.Fatal("render empty")
	}
}
