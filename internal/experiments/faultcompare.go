package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing" // AllocsPerRun: the no-fault-path zero-allocation guard
	"time"

	"accuracytrader/internal/agg"
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
// scripts — and validates the failure-domain contracts:
//
//  1. degradation honesty: no reply is ever served ReplyOK with strata
//     missing, Bounded requests are never served below their accuracy
//     floor (they get the typed ReplyUnavailable instead), Exact never
//     degrades, BestEffort always answers;
//  2. availability: with 1 of N components lost, BestEffort answer
//     rates hold at least (N-1)/N of the healthy phase (health-aware
//     rerouting means in practice they hold ~N/N);
//  3. recovery: after a heal, the killed peer's breaker re-closes via
//     the background dial prober — without request traffic — within a
//     small multiple of the cooldown;
//  4. zero cost when healthy: the no-fault hot path (breaker state
//     check, success feedback, the degrade rule) allocates nothing.
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

// The SLO-class mix of the sweep, indexed by request number mod 3.
const (
	faultClassBestEffort = iota
	faultClassBounded
	faultClassExact
	faultClasses
)

var faultClassNames = [faultClasses]string{"BestEffort", "Bounded", "Exact"}

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
	accSum     float64
	accCnt     int
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

	// NoFaultAllocs is allocs/op of the healthy-path fault machinery
	// (breaker check + success + degrade rule), pinned at zero.
	NoFaultAllocs float64
}

// Violations sums contract breaches over every phase.
func (fc *FaultCompare) Violations() int {
	total := 0
	for _, p := range fc.Phases {
		total += p.Violations
	}
	return total
}

// RunFaultCompare runs the kill/stall/heal sweep at the given scale.
func RunFaultCompare(sc Scale) (*FaultCompare, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	comps := svc.Comps
	n := len(comps)

	// Query sample with precomputed exact merged estimates, for the
	// measured-accuracy column.
	nq := sc.AccuracySamples
	if nq > 12 {
		nq = 12
	}
	queries := svc.Data.SampleAggQueries(sc.Seed^0x0fa, nq)
	exactEst := exactEstimates(comps, queries)

	fc := &FaultCompare{
		Servers:      n,
		Killed:       0,
		DeadlineMs:   faultDeadlineMs,
		BoundedFloor: faultBoundedFloor,
	}

	// The no-fault hot path must stay allocation-free: a closed breaker's
	// admission check and success feedback, and the degrade rule on a
	// full fan-out.
	br := breaker.New(breaker.Config{})
	full := make([]service.SubResult, n)
	for i := range full {
		full[i].Value = &wire.SubReply{}
	}
	fc.NoFaultAllocs = testing.AllocsPerRun(1000, func() {
		if br.State() != breaker.Closed {
			panic("breaker opened on the no-fault path")
		}
		br.Success()
		if answered, _, err := frontend.Claim(full, frontend.BoundedSLO(faultBoundedFloor), 1); answered != n || err != nil {
			panic("full fan-out settled as partial")
		}
	})
	fc.promise("zero-alloc no-fault path", fc.NoFaultAllocs == 0,
		"%.1f allocs/op on breaker check + success feedback + degrade rule (want 0)", fc.NoFaultAllocs)

	// Component servers behind fault-injection scripts: every listener
	// and every aggregator dial goes through the fabric, so one Set()
	// call crashes or stalls a component and Heal() restores it.
	fab := faultinject.NewFabric(sc.Seed)
	handler := netsvc.NewAggBackend(comps, netsvc.BackendOptions{})
	deadline := time.Duration(faultDeadlineMs * float64(time.Millisecond))
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: n,
		Handler:    func(int) netsvc.Handler { return handler },
		Server:     netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		WrapListener: func(_ int, l net.Listener) net.Listener {
			return fab.Script(l.Addr().String()).WrapListener(l)
		},
		Agg: netsvc.AggregatorOptions{
			Policy:     service.WaitAll,
			Deadline:   deadline,
			Breaker:    breaker.Config{FailThreshold: faultThreshold, Cooldown: time.Duration(faultCooldownMs * float64(time.Millisecond))},
			RedialBase: 5 * time.Millisecond,
			RedialMax:  50 * time.Millisecond,
			Seed:       sc.Seed ^ 0xfa17,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				return fab.Script(addr).Dialer(func(a string, to time.Duration) (net.Conn, error) {
					return net.DialTimeout("tcp", a, to)
				})(addr, timeout)
			},
		},
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			return netsvc.NewFrontServer(agr, nil, netsvc.ServerOptions{Workers: 8}), nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	agr, cl := lb.Agg, lb.Client
	killed := fab.Script(lb.Addrs[fc.Killed])

	qrng := stats.NewRNG(sc.Seed ^ 0x5eed)
	qis := make([]int, 4096)
	for i := range qis {
		qis[i] = qrng.Intn(len(queries))
	}

	// awaitReclose polls the faulted peer's breaker after a heal and
	// records how long the background prober took to re-close it.
	awaitReclose := func() error {
		t0 := time.Now()
		limit := t0.Add(time.Duration(4 * faultRecloseBudgetMs * float64(time.Millisecond)))
		for agr.BreakerState(fc.Killed) != breaker.Closed {
			if !time.Now().Before(limit) {
				return fmt.Errorf("faultcompare: breaker on %s still %v after heal",
					lb.Addrs[fc.Killed], agr.BreakerState(fc.Killed))
			}
			time.Sleep(2 * time.Millisecond)
		}
		fc.RecloseMs = append(fc.RecloseMs, float64(time.Since(t0))/float64(time.Millisecond))
		return nil
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
	for _, ph := range sweep {
		if ph.mode == faultinject.None {
			if killed.Mode() != faultinject.None {
				killed.Heal()
				if err := awaitReclose(); err != nil {
					return nil, err
				}
			}
		} else {
			killed.Set(ph.mode)
		}
		phase, err := fc.runPhase(cl, ph.name, ph.calls, queries, exactEst, qis, deadline)
		if err != nil {
			return nil, err
		}
		fc.Phases = append(fc.Phases, phase)
	}

	st := agr.Stats()
	fc.BreakerOpens = st.BreakerOpens
	fc.Retries = st.Retries
	fc.Faults = st.Faults
	fc.promise("degradation", fc.Violations() == 0,
		"%d degradation-contract violations over %d phases (want 0)", fc.Violations(), len(fc.Phases))
	return fc, nil
}

// runPhase drives one closed-loop call segment and classifies every
// reply against the per-SLO degradation contract.
func (fc *FaultCompare) runPhase(cl *netsvc.Client, name string, calls int,
	queries []agg.Query, exactEst [][]float64, qis []int, deadline time.Duration) (*FaultPhase, error) {
	p := &FaultPhase{Name: name, Calls: calls}
	t0 := time.Now()
	for r := 0; r < calls; r++ {
		qi := qis[r%len(qis)]
		q := queries[qi]
		class := r % faultClasses
		req := aggRequest(q)
		req.ID, req.Deadline = uint64(r), time.Now().Add(deadline).UnixNano()
		switch class {
		case faultClassBestEffort:
			req.SLO = wire.SLOBestEffort
		case faultClassBounded:
			req.SLO, req.MinAccuracy = wire.SLOBounded, faultBoundedFloor
		default:
			req.SLO = wire.SLOExact
		}
		p.Offered[class]++
		ctx, cancel := context.WithTimeout(context.Background(), 6*deadline)
		rep, err := cl.Call(ctx, req)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("faultcompare: client call in phase %q: %w", name, err)
		}
		switch rep.Status {
		case wire.ReplyOK, wire.ReplyDegraded:
			p.Answered[class]++
			answered, total := bytes.Count(rep.SubStatus, []byte{wire.StatusOK}), len(rep.SubStatus)
			if rep.Status == wire.ReplyOK {
				if answered < total {
					p.Violations++ // silent partial served as a full answer
				}
			} else {
				p.Degraded++
				switch {
				case class == faultClassExact:
					p.Violations++ // Exact must fail fast, never degrade
				case class == faultClassBounded && float64(answered)/float64(total) < faultBoundedFloor:
					p.Violations++ // served below the promised floor
				}
			}
			if rep.Agg != nil && len(rep.Agg.Sum) > 0 {
				p.accSum += agg.Accuracy(netsvc.AggResultOf(rep.Agg).Estimates(q.Op), exactEst[qi])
				p.accCnt++
			}
		case wire.ReplyUnavailable:
			p.Unavailable++
			if class == faultClassBestEffort {
				p.Violations++ // BestEffort always answers
			}
		default:
			p.Errors++
		}
	}
	p.Seconds = time.Since(t0).Seconds()
	if p.accCnt > 0 {
		p.MeanAcc = p.accSum / float64(p.accCnt)
	}
	return p, nil
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
			perClass = append(perClass, fmt.Sprintf("%s %d/%d", faultClassNames[c], p.Answered[c], p.Offered[c]))
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
