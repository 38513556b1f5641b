package experiments

import (
	"fmt"
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
// scripts. Its contracts (EXPERIMENTS.md § faultcompare): degradation
// honesty (target.issue's classifier) and peer health (the faulted
// peer's breaker trips in each fault, is closed after each other phase).
// Its test adds availability under 1-of-N loss and breaker re-close
// after each heal; the allocation-free no-fault path is
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
	// take to re-close (probe interval: one cooldown, with slack for CI
	// schedulers).
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

	// RecloseMs measures, per heal, how long until the faulted peer's
	// breaker was closed, without request traffic (served.heal).
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
	fc := &FaultCompare{Servers: len(f.Comps), DeadlineMs: faultDeadlineMs, BoundedFloor: faultBoundedFloor}

	// Component servers behind fault-injection scripts: every listener
	// and every aggregator dial goes through the fabric, so one fault
	// call crashes or stalls a component and a heal restores it.
	st, err := deployment{
		n:       fc.Servers,
		handler: shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{})),
		server:  netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		fabric:  faultinject.NewFabric(sc.Seed),
		agg: &netsvc.AggregatorOptions{
			Policy:   service.WaitAll,
			Deadline: msDur(faultDeadlineMs),
			Breaker:  breaker.Config{FailThreshold: faultThreshold, Cooldown: msDur(faultCooldownMs)},
		},
		front: &netsvc.ServerOptions{Workers: 8},
	}.start()
	if err != nil {
		return nil, err
	}
	defer st.Close()

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
	br := st.Agg.Breaker(fc.Killed)
	var opens int64 // br.Opens() as the current fault began: a crash trips it at once
	violations, untripped, unclosed, faulted := 0, 0, 0, false
	for _, ph := range sweep {
		switch {
		case ph.mode != faultinject.None:
			faulted, opens = true, br.Opens()
			st.fabric.Script(st.Addrs[fc.Killed]).Set(ph.mode)
		case faulted:
			if br.Opens() == opens {
				untripped++
			}
			took, err := st.heal(fc.Killed, 4*msDur(faultRecloseBudgetMs))
			if err != nil {
				return nil, fmt.Errorf("faultcompare: %w", err)
			}
			fc.RecloseMs, faulted = append(fc.RecloseMs, ms(took)), false
		}
		p := &FaultPhase{Name: ph.name, Calls: ph.calls}
		t0 := time.Now()
		if _, err := (load{n: ph.calls, timeout: 6 * msDur(faultDeadlineMs),
			request: f.asking(qis, func(r int, at time.Time) stamp {
				return stamp{slo: faultClassSLOs[r%faultClasses], deadline: at.Add(msDur(faultDeadlineMs))}
			})}).run(st.target, func(r int, _ float64, o outcome) error {
			class := r % faultClasses
			p.Offered[class]++
			if o.broken {
				p.Violations++
			}
			switch o.status {
			case wire.ReplyDegraded:
				p.Degraded++
				fallthrough
			case wire.ReplyOK:
				p.Answered[class]++
				p.MeanAcc += o.acc
			case wire.ReplyUnavailable:
				p.Unavailable++
			default:
				p.Errors++
			}
			return o.err
		}); err != nil {
			return nil, fmt.Errorf("faultcompare: phase %q: %w", ph.name, err)
		}
		p.Seconds = time.Since(t0).Seconds()
		p.MeanAcc /= float64(max(p.Answered[0]+p.Answered[1]+p.Answered[2], 1))
		violations += p.Violations
		fc.Phases = append(fc.Phases, p)
		if ph.mode == faultinject.None && br.State() != breaker.Closed {
			unclosed++
		}
	}
	ast := st.Agg.Stats()
	fc.BreakerOpens, fc.Retries, fc.Faults = ast.BreakerOpens, ast.Retries, ast.Faults
	fc.promise("degradation", violations == 0,
		"%d degradation-contract violations over %d phases (want 0)", violations, len(fc.Phases))
	fc.promise("peer health", untripped == 0 && unclosed == 0,
		"%d faults left the faulted peer's breaker untripped, %d other phases ended with it not closed (want 0, 0)",
		untripped, unclosed)
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
	b.WriteString("\nReading: a crash trips the killed component's breaker within a few counted redials, before or\n")
	b.WriteString("soon after the first request, and health-aware routing re-homes its strata on the survivors (every\n")
	b.WriteString("server holds all shards); a request caught in the trip window is honestly degraded or typed\n")
	b.WriteString("unavailable — never a silently skewed ReplyOK. Stalls are the harder fault: connections stay up, so\n")
	b.WriteString("the breaker flaps trip/probe at the cooldown cadence, bounding how much of the sweep each stall can poison.\n")
	return b.String()
}
