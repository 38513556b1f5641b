package experiments

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// The faultcompare experiment (robustness extension, not a paper
// figure) kills, stalls and heals component servers mid-sweep on the
// real networked stack — wire clients against a FrontServer whose
// aggregator fans out over loopback TCP through internal/faultinject
// scripts. Its contract (EXPERIMENTS.md § faultcompare): degradation
// honesty — every reply keeps its class's promise (target.issue's
// classifier). Its test adds availability under 1-of-N loss and breaker
// re-close after each heal; the allocation-free no-fault path is
// breaker.TestClosedPathDoesNotAllocate's and
// frontend.TestClaimDoesNotAllocate's promise.
const (
	// faultDeadlineMs is the propagated service budget (l_spe): small, so
	// stalled-component phases cycle through trip/probe quickly.
	faultDeadlineMs = 35.0
	// faultCooldownMs is the breaker cooldown before a half-open probe.
	faultCooldownMs = 20.0
	// faultThreshold is the consecutive-failure trip threshold.
	faultThreshold = 3
	// faultBoundedFloor is the Bounded-class accuracy floor: below the
	// (N-1)/N discount of a 1-of-4 loss would be a guaranteed rejection,
	// above it a degraded answer still clears the contract.
	faultBoundedFloor = 0.7
	// faultRecloseBudgetMs bounds how long a healed peer's breaker may
	// take to re-close (probe interval: dial backoff cap + cooldown,
	// with slack for CI schedulers).
	faultRecloseBudgetMs = 1500.0
)

// The SLO-class mix of the sweep, indexed by request number mod 3, and
// each class's SLO.
const (
	faultClassBestEffort = iota
	faultClassBounded
	faultClassExact
	faultClasses
)

var faultClassSLOs = [faultClasses]frontend.SLO{frontend.BestEffortSLO(), frontend.BoundedSLO(faultBoundedFloor), frontend.ExactSLO()}

// FaultPhase is one measured segment of the kill/stall/heal sweep.
type FaultPhase struct {
	Name  string // phase label ("healthy", "crash comp0", ...)
	Calls int
	// Answered counts payload-carrying replies (ReplyOK or
	// ReplyDegraded) per SLO class; Offered the per-class attempts.
	Answered    [faultClasses]int
	Offered     [faultClasses]int
	Degraded    int // replies served ReplyDegraded
	Unavailable int // typed ReplyUnavailable rejections
	Errors      int // transport or server errors
	// Violations counts contract breaches: an OK reply with missing
	// strata, a Bounded answer below its floor, a degraded Exact, or an
	// unanswered BestEffort.
	Violations int
	MeanAcc    float64 // measured accuracy of payload replies vs exact
	Seconds    float64
}

// FaultCompare is the full experiment result.
type FaultCompare struct {
	contracts
	Servers      int
	Killed       int // index of the faulted component
	DeadlineMs   float64
	BoundedFloor float64
	Phases       []*FaultPhase

	// RecloseMs measures, per heal, how long the faulted peer's breaker
	// took to re-close after Heal() — driven purely by the background
	// dial prober, no request traffic.
	RecloseMs []float64

	// Aggregator failure-handling counters over the whole sweep.
	BreakerOpens int64
	Retries      int64
	Faults       int64
}

// RunFaultCompare runs the kill/stall/heal sweep at the given scale.
func RunFaultCompare(sc Scale) (*FaultCompare, error) {
	f, err := aggFixture(sc, 0x0fa, min(sc.AccuracySamples, 12))
	if err != nil {
		return nil, err
	}
	n := len(f.Comps)
	fc := &FaultCompare{
		Servers:      n,
		Killed:       0,
		DeadlineMs:   faultDeadlineMs,
		BoundedFloor: faultBoundedFloor,
	}

	// Component servers behind fault-injection scripts: every listener
	// and every aggregator dial goes through the fabric, so one Set()
	// call crashes or stalls a component and Heal() restores it.
	fab := faultinject.NewFabric(sc.Seed)
	st, err := deployment{
		n:       n,
		handler: shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{})),
		server:  netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		wrap: func(_ int, l net.Listener) net.Listener {
			return fab.Script(l.Addr().String()).WrapListener(l)
		},
		agg: &netsvc.AggregatorOptions{
			Policy:     service.WaitAll,
			Deadline:   msDur(faultDeadlineMs),
			Breaker:    breaker.Config{FailThreshold: faultThreshold, Cooldown: msDur(faultCooldownMs)},
			RedialBase: 5 * time.Millisecond,
			RedialMax:  50 * time.Millisecond,
			Seed:       sc.Seed ^ 0xfa17,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				return fab.Script(addr).Dialer(func(a string, to time.Duration) (net.Conn, error) {
					return net.DialTimeout("tcp", a, to)
				})(addr, timeout)
			},
		},
		front: netsvc.ServerOptions{Workers: 8},
	}.start()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	killed := fab.Script(st.Addrs[fc.Killed])

	qrng := stats.NewRNG(sc.Seed ^ 0x5eed)
	qis := make([]int, 4096)
	for i := range qis {
		qis[i] = qrng.Intn(len(f.queries))
	}

	sweep := []struct {
		name  string
		mode  faultinject.Mode
		calls int
	}{
		{"healthy", faultinject.None, 150},
		{"crash comp0", faultinject.Crash, 150},
		{"healed", faultinject.None, 100},
		{"stall comp0", faultinject.Stall, 60},
		{"healed again", faultinject.None, 100},
	}
	violations := 0
	for _, ph := range sweep {
		switch {
		case ph.mode != faultinject.None:
			killed.Set(ph.mode)
		case killed.Mode() != faultinject.None:
			// Heal, then time the background prober re-closing the
			// faulted peer's breaker.
			killed.Heal()
			t0 := time.Now()
			if !waitFor(func() bool { return st.Agg.BreakerState(fc.Killed) == breaker.Closed }, 4*msDur(faultRecloseBudgetMs)) {
				return nil, fmt.Errorf("faultcompare: breaker on %s still %v after heal",
					st.Addrs[fc.Killed], st.Agg.BreakerState(fc.Killed))
			}
			fc.RecloseMs = append(fc.RecloseMs, ms(time.Since(t0)))
		}
		p := &FaultPhase{Name: ph.name, Calls: ph.calls}
		answered, t0 := 0, time.Now()
		for r := 0; r < ph.calls; r++ {
			qi, class := qis[r%len(qis)], r%faultClasses
			p.Offered[class]++
			ctx, cancel := context.WithTimeout(context.Background(), 6*msDur(faultDeadlineMs))
			o := st.issue(ctx, AggRequest(f.queries[qi]),
				stamp{slo: faultClassSLOs[class], deadline: time.Now().Add(msDur(faultDeadlineMs))}, f.exact[qi])
			cancel()
			if o.err != nil {
				return nil, fmt.Errorf("faultcompare: client call in phase %q: %w", ph.name, o.err)
			}
			if o.broken {
				p.Violations++
			}
			switch o.status {
			case wire.ReplyOK, wire.ReplyDegraded:
				p.Answered[class]++
				answered++
				p.MeanAcc += o.acc
				if o.status == wire.ReplyDegraded {
					p.Degraded++
				}
			case wire.ReplyUnavailable:
				p.Unavailable++
			default:
				p.Errors++
			}
		}
		p.Seconds = time.Since(t0).Seconds()
		p.MeanAcc /= float64(max(answered, 1))
		violations += p.Violations
		fc.Phases = append(fc.Phases, p)
	}

	ast := st.Agg.Stats()
	fc.BreakerOpens, fc.Retries, fc.Faults = ast.BreakerOpens, ast.Retries, ast.Faults
	fc.promise("degradation", violations == 0,
		"%d degradation-contract violations over %d phases (want 0)", violations, len(fc.Phases))
	return fc, nil
}

// Render formats the sweep as a text report.
func (fc *FaultCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAULTCOMPARE: failure-domain hardening sweep (loopback TCP through internal/faultinject scripts)\n")
	fmt.Fprintf(&b, "(%d component servers, component %d faulted; deadline %.0f ms; breaker trips at %d consecutive\n",
		fc.Servers, fc.Killed, fc.DeadlineMs, faultThreshold)
	fmt.Fprintf(&b, " failures, cooldown %.0f ms; class mix BestEffort/Bounded{%.2f}/Exact round-robin)\n\n",
		faultCooldownMs, fc.BoundedFloor)
	fmt.Fprintf(&b, "  %-13s %6s %9s %6s %7s %7s %7s %8s %6s  %s\n",
		"phase", "calls", "answered", "degr", "unavail", "errors", "violat", "acc", "sec", "answered/class")
	for _, p := range fc.Phases {
		total := 0
		for _, a := range p.Answered {
			total += a
		}
		var perClass []string
		for c := 0; c < faultClasses; c++ {
			perClass = append(perClass, fmt.Sprintf("%s %d/%d", faultClassSLOs[c].Kind, p.Answered[c], p.Offered[c]))
		}
		fmt.Fprintf(&b, "  %-13s %6d %9d %6d %7d %7d %7d %8.3f %6.2f  %s\n",
			p.Name, p.Calls, total, p.Degraded, p.Unavailable, p.Errors, p.Violations, p.MeanAcc, p.Seconds,
			strings.Join(perClass, ", "))
	}
	b.WriteString("\n")
	for i, ms := range fc.RecloseMs {
		fmt.Fprintf(&b, "heal %d: breaker re-closed by the background prober in %.1f ms (budget %.0f ms), no traffic needed\n",
			i+1, ms, faultRecloseBudgetMs)
	}
	fmt.Fprintf(&b, "breaker opens %d, retries %d, faults %d over the sweep\n\n", fc.BreakerOpens, fc.Retries, fc.Faults)
	fc.renderContracts(&b)
	b.WriteString("\nReading: during the crash phase the killed component's breaker opens and health-aware routing re-homes\n")
	b.WriteString("its strata on the survivors (every server holds all shards), so BestEffort availability holds and the\n")
	b.WriteString("brief trip window surfaces as honestly-degraded or typed-unavailable replies — never a silently skewed\n")
	b.WriteString("ReplyOK. Stalls are the harder fault: connections stay up, so the breaker flaps trip/probe at the\n")
	b.WriteString("cooldown cadence, bounding how much of the sweep each stall can poison.\n")
	return b.String()
}
