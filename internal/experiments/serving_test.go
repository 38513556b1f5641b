package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/wire"
)

// TestClassify pins the one classifier every serving experiment judges
// replies with, over synthetic replies and no sockets: each of
// faultcompare's four violations is counted, the frontend's legal
// refusals and downgrades are not, rejected / unavailable / failed
// outcomes stay apart, and accuracy is scored against the exact
// estimates.
func TestClassify(t *testing.T) {
	ref := []float64{10, 20, 30, 40}
	exactAgg := &wire.AggResult{Sum: ref, Cnt: make([]float64, 4), SumVar: make([]float64, 4), CntVar: make([]float64, 4)}
	approx := []float64{11, 20, 27, 40}
	approxAgg := &wire.AggResult{Sum: approx, Cnt: make([]float64, 4), SumVar: make([]float64, 4), CntVar: make([]float64, 4)}
	ok4 := []uint8{wire.StatusOK, wire.StatusOK, wire.StatusOK, wire.StatusOK}
	lost1 := []uint8{wire.StatusOK, wire.StatusSkipped, wire.StatusOK, wire.StatusOK}
	lost2 := []uint8{wire.StatusOK, wire.StatusErr, wire.StatusBusy, wire.StatusOK}
	levelAcc := []float64{0.8, 0.88, 0.95}

	cases := []struct {
		name     string
		slo      frontend.SLO
		rep      wire.Reply
		levelAcc []float64
		broken   bool
		missing  int
		acc      float64
	}{
		{"full OK answer", frontend.BoundedSLO(0.7),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOBounded, Level: wire.NoLevel, SubStatus: ok4, Agg: approxAgg}, nil, false, 0, agg.Accuracy(approx, ref)},
		{"OK reply with a stratum missing", frontend.BestEffortSLO(),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOBestEffort, Level: wire.NoLevel, SubStatus: lost1, Agg: approxAgg}, nil, true, 1, agg.Accuracy(approx, ref)},
		{"degraded Exact", frontend.ExactSLO(),
			wire.Reply{Status: wire.ReplyDegraded, SLO: wire.SLOExact, Level: wire.NoLevel, SubStatus: lost1, Agg: exactAgg}, nil, true, 1, 1},
		{"degraded Bounded below its floor", frontend.BoundedSLO(0.7),
			wire.Reply{Status: wire.ReplyDegraded, SLO: wire.SLOBounded, Level: wire.NoLevel, SubStatus: lost2, Agg: approxAgg}, nil, true, 2, agg.Accuracy(approx, ref)},
		{"degraded Bounded at its floor", frontend.BoundedSLO(0.75),
			wire.Reply{Status: wire.ReplyDegraded, SLO: wire.SLOBounded, Level: wire.NoLevel, SubStatus: lost1, Agg: approxAgg}, nil, false, 1, agg.Accuracy(approx, ref)},
		{"unavailable BestEffort", frontend.BestEffortSLO(),
			wire.Reply{Status: wire.ReplyUnavailable, SLO: wire.SLOBestEffort, Level: wire.NoLevel, SubStatus: lost1}, nil, true, 1, 0},
		{"unavailable Exact is the typed refusal", frontend.ExactSLO(),
			wire.Reply{Status: wire.ReplyUnavailable, SLO: wire.SLOExact, Level: wire.NoLevel, SubStatus: lost1}, nil, false, 1, 0},
		{"unavailable Bounded is the typed refusal", frontend.BoundedSLO(0.9),
			wire.Reply{Status: wire.ReplyUnavailable, SLO: wire.SLOBounded, Level: 2, SubStatus: lost1}, levelAcc, false, 1, 0},
		{"rejected", frontend.BestEffortSLO(),
			wire.Reply{Status: wire.ReplyRejected, SLO: wire.SLOBestEffort, Level: wire.NoLevel}, nil, false, 0, 0},
		{"server error", frontend.ExactSLO(),
			wire.Reply{Status: wire.ReplyErr, SLO: wire.SLOExact, Level: wire.NoLevel}, nil, false, 0, 0},
		{"Exact answer that is not exact", frontend.ExactSLO(),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOExact, Level: 2, SubStatus: ok4, Agg: approxAgg}, levelAcc, true, 0, agg.Accuracy(approx, ref)},
		{"Exact answer", frontend.ExactSLO(),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOExact, Level: 2, SubStatus: ok4, Agg: exactAgg}, levelAcc, false, 0, 1},
		{"Bounded served from a level calibrated under its floor", frontend.BoundedSLO(0.9),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOBounded, Level: 1, SubStatus: ok4, Agg: approxAgg, Cached: true}, levelAcc, true, 0, agg.Accuracy(approx, ref)},
		{"Bounded served from a level calibrated over its floor", frontend.BoundedSLO(0.9),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOBounded, Level: 2, SubStatus: ok4, Agg: approxAgg}, levelAcc, false, 0, agg.Accuracy(approx, ref)},
		{"Bounded downgraded to BestEffort by admission", frontend.BoundedSLO(0.9),
			wire.Reply{Status: wire.ReplyOK, SLO: wire.SLOBestEffort, Level: 0, SubStatus: ok4, Agg: approxAgg}, levelAcc, false, 0, agg.Accuracy(approx, ref)},
	}
	req := aggRequest(agg.Query{Op: agg.Sum})
	for _, c := range cases {
		o := classify(req, &c.rep, c.slo, ref, c.levelAcc)
		if o.broken != c.broken || o.missing != c.missing || o.status != c.rep.Status || o.acc != c.acc {
			t.Errorf("%s: broken %v missing %d status %d acc %v, want %v %d %d %v",
				c.name, o.broken, o.missing, o.status, o.acc, c.broken, c.missing, c.rep.Status, c.acc)
		}
	}
	if o := classify(req, &cases[0].rep, cases[0].slo, nil, nil); o.acc != 0 {
		t.Errorf("no reference scored accuracy %v", o.acc)
	}
}

// TestIssueStampsAndSeparatesFailures: issue stamps the class, floor,
// budget and tenant onto the request it sends, and a failed call is its
// own outcome, apart from every reply status.
func TestIssueStampsAndSeparatesFailures(t *testing.T) {
	var sent wire.Request
	dl := time.Now().Add(time.Second)
	tg := target{send: func(_ context.Context, req *wire.Request) (*wire.Reply, error) {
		sent = *req
		return &wire.Reply{Status: wire.ReplyOK, SLO: req.SLO, Level: wire.NoLevel}, nil
	}}
	o := tg.issue(context.Background(), aggRequest(agg.Query{Op: agg.Sum}), stamp{slo: frontend.BoundedSLO(0.8), deadline: dl, tenant: "acme"}, nil)
	if o.failed() != nil || sent.SLO != wire.SLOBounded || sent.MinAccuracy != 0.8 || sent.Deadline != dl.UnixNano() || sent.Tenant != "acme" {
		t.Fatalf("outcome %+v, sent %+v", o, sent)
	}
	boom := errors.New("connection reset")
	tg.send = func(context.Context, *wire.Request) (*wire.Reply, error) { return nil, boom }
	o = tg.issue(context.Background(), aggRequest(agg.Query{Op: agg.Sum}), stamp{slo: frontend.BestEffortSLO()}, nil)
	if !errors.Is(o.failed(), boom) || o.status != wire.ReplyErr || o.rep != nil || o.broken {
		t.Fatalf("failed call classified as %+v", o)
	}
}
