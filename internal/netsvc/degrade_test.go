package netsvc

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/rescache"
	"accuracytrader/internal/wire"
)

// degradeFixture serves four subsets where subset 0 fails on demand,
// behind the front server front specifies, and returns a client plus the
// fault switch.
func degradeFixture(t *testing.T, front *FrontSpec) (*Client, *atomic.Bool) {
	t.Helper()
	var lose atomic.Bool
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Subset == 0 && lose.Load() {
			return &wire.SubReply{Status: wire.StatusErr, Err: "injected fault", Level: wire.NoLevel}
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0.5}, CntVar: []float64{0}}}
	}
	cl := startLoopback(t, LoopbackSpec{Components: 4, Handler: every(h), Agg: waitAll, Front: front}).Client
	return cl, &lose
}

func degradeCall(t *testing.T, cl *Client, slo uint8, minAcc float64) *wire.Reply {
	t.Helper()
	req := &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: slo, MinAccuracy: minAcc,
		Level: wire.NoLevel, Agg: &wire.AggRequest{Lo: 0, Hi: math.Inf(1)},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDegradationSLORule pins the per-SLO composition rule when strata
// are missing: BestEffort always answers (degraded, with extrapolated
// bounds), Bounded answers only while the discounted accuracy clears
// its floor (typed rejection otherwise), Exact fails fast — and a
// healthy fan-out stays a plain OK answer.
func TestDegradationSLORule(t *testing.T) {
	cl, lose := degradeFixture(t, &FrontSpec{})

	// Healthy control: full fan-out, plain OK, no degradation flag.
	rep := degradeCall(t, cl, wire.SLOBestEffort, 0)
	if rep.Status != wire.ReplyOK || rep.Degraded {
		t.Fatalf("healthy reply: status %d degraded %v err %q", rep.Status, rep.Degraded, rep.Err)
	}
	if got := rep.Agg.Sum[0]; got != 4 {
		t.Fatalf("healthy composed sum = %v, want 4", got)
	}

	lose.Store(true)

	// BestEffort: always answers, degraded, with the 3-of-4 answer
	// extrapolated to the full population (sums ×4/3, variances ×16/9).
	rep = degradeCall(t, cl, wire.SLOBestEffort, 0)
	if rep.Status != wire.ReplyDegraded || !rep.Degraded {
		t.Fatalf("best-effort under loss: status %d degraded %v err %q", rep.Status, rep.Degraded, rep.Err)
	}
	if got, want := rep.Agg.Sum[0], 3*4.0/3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("extrapolated sum = %v, want %v", got, want)
	}
	if got, want := rep.Agg.SumVar[0], 3*0.5*(4.0/3)*(4.0/3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("extrapolated sum variance = %v, want %v", got, want)
	}
	if n := len(rep.SubStatus); n != 4 {
		t.Fatalf("SubStatus length %d, want 4", n)
	}

	// Bounded below the discounted accuracy (0.75): answers degraded.
	rep = degradeCall(t, cl, wire.SLOBounded, 0.7)
	if rep.Status != wire.ReplyDegraded || !rep.Degraded {
		t.Fatalf("bounded 0.7 under loss: status %d err %q", rep.Status, rep.Err)
	}

	// Bounded above it: typed rejection, no payload.
	rep = degradeCall(t, cl, wire.SLOBounded, 0.9)
	if rep.Status != wire.ReplyUnavailable {
		t.Fatalf("bounded 0.9 under loss: status %d err %q", rep.Status, rep.Err)
	}
	if rep.Agg != nil {
		t.Fatalf("rejected reply carries a payload: %+v", rep.Agg)
	}
	if !strings.Contains(rep.Err, "floor") {
		t.Fatalf("rejection reason %q does not name the floor", rep.Err)
	}

	// Exact: fails fast with the typed status.
	rep = degradeCall(t, cl, wire.SLOExact, 0)
	if rep.Status != wire.ReplyUnavailable || rep.Agg != nil {
		t.Fatalf("exact under loss: status %d agg %v", rep.Status, rep.Agg)
	}

	// Heal: the next fan-out is whole again.
	lose.Store(false)
	rep = degradeCall(t, cl, wire.SLOBounded, 0.9)
	if rep.Status != wire.ReplyOK || rep.Degraded {
		t.Fatalf("post-heal reply: status %d degraded %v err %q", rep.Status, rep.Degraded, rep.Err)
	}
}

// TestDegradedReplyIsNeverCached: with the result cache on, a reply
// composed over a missing stratum answers its caller but is neither
// stored nor shared — the repeat under the same fault computes again —
// and after healing the first whole answer is the one that gets stored.
func TestDegradedReplyIsNeverCached(t *testing.T) {
	cache, err := rescache.New(rescache.Config{Capacity: 64, RefreshBelow: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	cl, lose := degradeFixture(t, calibratedFront(t, nil, ServerOptions{Cache: cache}))

	lose.Store(true)
	for i := 0; i < 2; i++ {
		rep := degradeCall(t, cl, wire.SLOBestEffort, 0)
		if rep.Status != wire.ReplyDegraded || rep.Cached {
			t.Fatalf("best-effort call %d under loss: status %d cached %v err %q", i, rep.Status, rep.Cached, rep.Err)
		}
	}

	lose.Store(false)
	rep := degradeCall(t, cl, wire.SLOBestEffort, 0)
	if rep.Status != wire.ReplyOK || rep.Cached {
		t.Fatalf("first post-heal call: status %d cached %v err %q (a degraded entry served?)", rep.Status, rep.Cached, rep.Err)
	}
	rep = degradeCall(t, cl, wire.SLOBestEffort, 0)
	if rep.Status != wire.ReplyOK || !rep.Cached {
		t.Fatalf("second post-heal call: status %d cached %v, want the stored whole answer", rep.Status, rep.Cached)
	}
	if st := cache.Stats(); st.Stored != 1 {
		t.Fatalf("cache stats = %+v, want exactly the one whole answer stored", st)
	}
}
