package frontend

// Load is a point-in-time snapshot of cluster pressure, the input to
// admission decisions and the degradation controller.
type Load struct {
	// Inflight is the number of admitted requests not yet answered.
	Inflight int
	// QueueFrac is the mean component mailbox occupancy in [0,1].
	QueueFrac float64
	// MaxQueueFrac is the hottest component's mailbox occupancy in
	// [0,1] — the signal that matters for tail latency.
	MaxQueueFrac float64
	// LatencyFrac is the estimated tail sub-operation latency divided
	// by the service deadline; values above 1 mean the tail already
	// blows the deadline.
	LatencyFrac float64
}

// Decision is an admission policy's verdict on one request.
type Decision int

// Admission verdicts, in increasing severity. When several policies
// are chained, the most severe verdict wins.
const (
	// Admit lets the request through unchanged.
	Admit Decision = iota
	// Degrade admits the request but downgrades a Bounded SLO class to
	// BestEffort (Exact requests keep their guarantee — for them
	// rejection is the only shedding mechanism — and BestEffort has
	// nothing left to give up).
	Degrade
	// Reject sheds the request before it reaches any mailbox.
	Reject
)

// String returns the verdict name.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Degrade:
		return "degrade"
	default:
		return "reject"
	}
}

// AdmissionPolicy decides whether one arriving request enters the
// fan-out. nowMs is a monotonic millisecond clock (wall time in the
// live runtime, virtual time in the simulator). Implementations must
// be safe for concurrent use.
type AdmissionPolicy interface {
	Admit(nowMs float64, l Load) Decision
}

// MaxInflight rejects once the number of in-flight requests reaches a
// limit — the classic concurrency cap.
type MaxInflight struct {
	limit int
}

// NewMaxInflight returns a policy admitting at most limit concurrent
// requests.
func NewMaxInflight(limit int) *MaxInflight {
	if limit < 1 {
		limit = 1
	}
	return &MaxInflight{limit: limit}
}

// Admit rejects when the in-flight count has reached the limit.
func (m *MaxInflight) Admit(_ float64, l Load) Decision {
	if l.Inflight >= m.limit {
		return Reject
	}
	return Admit
}

// QueueWatermark acts on the hottest component's mailbox occupancy:
// above the degrade watermark requests are downgraded to BestEffort,
// above the reject watermark they are shed. This is the policy that
// turns "mailboxes filling up" into graceful degradation instead of
// ErrQueueFull deep in the fan-out.
type QueueWatermark struct {
	degradeAt float64
	rejectAt  float64
}

// NewQueueWatermark returns a watermark policy. Watermarks are
// occupancy fractions in [0,1]; degradeAt should be below rejectAt
// (values are clamped into order).
func NewQueueWatermark(degradeAt, rejectAt float64) *QueueWatermark {
	if rejectAt <= 0 {
		rejectAt = 1
	}
	if degradeAt > rejectAt {
		degradeAt = rejectAt
	}
	return &QueueWatermark{degradeAt: degradeAt, rejectAt: rejectAt}
}

// Admit compares the hottest mailbox against the watermarks.
func (q *QueueWatermark) Admit(_ float64, l Load) Decision {
	switch {
	case l.MaxQueueFrac >= q.rejectAt:
		return Reject
	case l.MaxQueueFrac >= q.degradeAt:
		return Degrade
	default:
		return Admit
	}
}

// Chain evaluates every policy and returns the most severe verdict, so
// a concurrency cap and a queue watermark compose.
func Chain(nowMs float64, l Load, policies []AdmissionPolicy) Decision {
	verdict := Admit
	for _, p := range policies {
		if d := p.Admit(nowMs, l); d > verdict {
			verdict = d
		}
	}
	return verdict
}
