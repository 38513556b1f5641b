package main

import (
	"context"
	"io"
	"net"
	"runtime"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// probeRounds is how often an isolated probe repeats its input set;
// the reported time is the median round, so a collection or a
// scheduler hiccup in one round does not move it.
const probeRounds = 15

// probeFrames bounds the captured frames of one kind a codec probe
// replays.
const probeFrames = 2048

// timeEach returns the median over rounds of the mean time, in
// nanoseconds, of one fn(i) call for i in [0,n).
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// allocsEach returns the mean heap allocations of one fn(i) call.
func allocsEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	fn(0) // warm pools
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// Sinks keep probe results reachable so the calls are not elided.
var (
	sinkBytes []byte
	sinkKey   uint64
)

// probeWire times the codec on the frames the counting connections
// captured from the workload's own traffic, and attributes codec
// allocations to a request by the captured frames-per-request mix.
func probeWire(m map[string]float64, tr *tracer, reads int) {
	subReplies, subRequests := tr.dial.frames() // aggregator side: reads sub-replies, writes sub-requests
	requests, replies := tr.front.frames()      // front server side: reads requests, writes replies
	onlyKind := func(frames [][]byte, kind byte) [][]byte {
		var out [][]byte
		for _, f := range frames {
			if k, err := wire.FrameKind(f); err == nil && k == kind && len(out) < probeFrames {
				out = append(out, f)
			}
		}
		return out
	}
	// Whole-service requests first, so the bound cannot crowd them out.
	reqFrames := onlyKind(append(append([][]byte(nil), requests...), subRequests...), wire.FrameRequest)
	subFrames := onlyKind(subReplies, wire.FrameSubReply)
	repFrames := onlyKind(replies, wire.FrameReply)

	var reqs []*wire.Request
	for _, f := range reqFrames {
		if r, err := wire.DecodeRequest(f); err == nil {
			reqs = append(reqs, r)
		}
	}
	var subs []*wire.SubReply
	for _, f := range subFrames {
		if r, err := wire.DecodeSubReply(f); err == nil {
			subs = append(subs, r)
		}
	}
	var reps []*wire.Reply
	for _, f := range repFrames {
		if r, err := wire.DecodeReply(f); err == nil {
			reps = append(reps, r)
		}
	}
	encReq := func(i int) { sinkBytes = wire.AppendRequestFrame(nil, reqs[i]) }
	decReq := func(i int) { _, _ = wire.DecodeRequest(reqFrames[i]) }
	encSub := func(i int) { sinkBytes = wire.AppendSubReplyFrame(nil, subs[i]) }
	decSub := func(i int) { _, _ = wire.DecodeSubReply(subFrames[i]) }
	encRep := func(i int) { sinkBytes = wire.AppendReplyFrame(nil, reps[i]) }
	decRep := func(i int) { _, _ = wire.DecodeReply(repFrames[i]) }
	m["wire.enc_req_ns"] = timeEach(len(reqs), encReq)
	m["wire.dec_req_ns"] = timeEach(len(reqs), decReq)
	m["wire.enc_sub_ns"] = timeEach(len(subs), encSub)
	m["wire.dec_sub_ns"] = timeEach(len(subs), decSub)
	m["wire.enc_reply_ns"] = timeEach(len(reps), encRep)
	m["wire.dec_reply_ns"] = timeEach(len(reps), decRep)

	var whole []*wire.Request // client -> front requests only
	for _, r := range reqs {
		if r.Subset < 0 {
			whole = append(whole, r)
		}
	}
	var key []byte
	m["wire.canonical_key_ns"] = timeEach(len(whole), func(i int) {
		key = wire.AppendCanonicalKey(key[:0], whole[i])
		sinkKey = rescache.Key(key)
	})

	// Frames of each kind per read: the stream's byte count scaled by
	// the kind's share of the captured prefix, so the estimate holds
	// whether or not a writer batches frames into one call. Every frame
	// is encoded once and decoded once.
	d, f := &tr.dial, &tr.front
	perRead := func(v float64) float64 { return ratio(v, float64(reads)) }
	reqPer := perRead(estFrames(d.writeBytes.Load(), subRequests, wire.FrameRequest) +
		estFrames(f.readBytes.Load(), requests, wire.FrameRequest))
	subPer := perRead(estFrames(d.readBytes.Load(), subReplies, wire.FrameSubReply))
	repPer := perRead(estFrames(f.writeBytes.Load(), replies, wire.FrameReply))
	m["wire.codec_allocs_per_req"] = reqPer*(allocsEach(len(reqs), encReq)+allocsEach(len(reqs), decReq)) +
		subPer*(allocsEach(len(subs), encSub)+allocsEach(len(subs), decSub)) +
		repPer*(allocsEach(len(reps), encRep)+allocsEach(len(reps), decRep))
	m["wire.bytes_per_req"] = perRead(float64(d.readBytes.Load() + d.writeBytes.Load() + f.readBytes.Load() + f.writeBytes.Load()))
}

// estFrames estimates how many frames of one kind a stream of
// streamBytes carried, from the mix of its captured prefix.
func estFrames(streamBytes int64, captured [][]byte, kind byte) float64 {
	capBytes, n := 0, 0
	for _, fr := range captured {
		capBytes += len(fr) + 4
		if k, err := wire.FrameKind(fr); err == nil && k == kind {
			n++
		}
	}
	if capBytes == 0 {
		return 0
	}
	return float64(streamBytes) * float64(n) / float64(capBytes)
}

// probeConns reports connection calls per read from the wrapped
// seams: the aggregator's dialer and both kinds of listener. The
// client's own connection has no seam; its one write per call shows
// as the front server's reads.
func probeConns(m map[string]float64, tr *tracer, reads int) {
	w := tr.dial.writes.Load() + tr.comps.writes.Load() + tr.front.writes.Load()
	r := tr.dial.reads.Load() + tr.comps.reads.Load() + tr.front.reads.Load()
	m["netsvc.conn_writes_per_req"] = ratio(float64(w), float64(reads))
	m["netsvc.conn_reads_per_req"] = ratio(float64(r), float64(reads))
}

// probeCompose times the workload's composer on sub-result sets kept
// from its own gathers.
func probeCompose(m map[string]float64, tr *tracer) {
	tr.mu.Lock()
	sets := append([][]service.SubResult(nil), tr.subs...)
	tr.mu.Unlock()
	if len(sets) == 0 {
		return
	}
	first, _ := sets[0][0].Value.(*wire.SubReply)
	if first == nil {
		return
	}
	m["netsvc.compose_ns"] = timeEach(len(sets), func(i int) {
		switch first.Kind {
		case wire.KindCF:
			netsvc.ComposeCF(sets[i])
		case wire.KindSearch:
			netsvc.ComposeSearch(sets[i], searchK)
		default:
			netsvc.ComposeAgg(sets[i])
		}
	})
}

// nopBackend answers a fan-out instantly, leaving only the frontend's
// own admission, load snapshot and level selection in Frontend.Call.
type nopBackend struct{ subs []service.SubResult }

func (nopBackend) Components() int             { return components }
func (nopBackend) QueueCap() int               { return 64 }
func (nopBackend) QueueDepth(int) int          { return 0 }
func (nopBackend) Inflight() int               { return 0 }
func (nopBackend) EstimatedP95() time.Duration { return time.Millisecond }
func (nopBackend) Deadline() time.Duration     { return time.Second }
func (nopBackend) SetRouter(service.RouteFunc) {}
func (b nopBackend) Call(context.Context, interface{}) ([]service.SubResult, error) {
	return b.subs, nil
}

// probeFrontend times Frontend.Call over the no-op backend: admission,
// load snapshot, level selection and nothing else.
func probeFrontend(m map[string]float64, levelAcc []float64, req *wire.Request) {
	ctrl, err := newController(levelAcc)
	if err != nil {
		return
	}
	fe, err := frontend.New(nopBackend{subs: make([]service.SubResult, components)}, frontendOptions(ctrl))
	if err != nil {
		return
	}
	ctx := context.Background()
	m["frontend.call_self_ns"] = timeEach(512, func(int) {
		_, _ = fe.Call(ctx, req, frontend.BestEffortSLO())
	})
}

// probeCache times the cache's hit and store paths on the keys of the
// workload's own requests.
func probeCache(m map[string]float64, reqs [][3]*wire.Request) {
	c, err := rescache.New(rescache.Config{})
	if err != nil {
		return
	}
	defer c.Close()
	keys := make([]uint64, len(reqs))
	for i, r := range reqs {
		keys[i] = rescache.Key(wire.AppendCanonicalKey(nil, r[classBestEffort]))
	}
	value := &wire.Reply{}
	m["rescache.store_ns"] = timeEach(len(keys), func(i int) {
		c.StoreAt(keys[i], reqs[i][classBestEffort], value, 1, c.Epoch())
	})
	m["rescache.get_hit_ns"] = timeEach(len(keys), func(i int) {
		c.Get(keys[i], 0.5)
	})
}

// probeIngest times the live store's write path on a scratch shard fed
// with the workload's own rows.
func probeIngest(m map[string]float64, nKeys int, cfg agg.Config, keys []int32, vals []float64) {
	l := ingest.NewAggLive(nKeys, cfg)
	batches := len(keys) / aggBatchRows
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		lo := b * aggBatchRows
		if _, err := l.Append(keys[lo:lo+aggBatchRows], vals[lo:lo+aggBatchRows]); err != nil {
			return
		}
	}
	m["ingest.append_ns_per_row"] = float64(time.Since(t0)) / float64(batches*aggBatchRows)
}

// probeAggEngines times one shard's pooled engine at the finest level
// and its exact scan, over the workload's query pool.
func probeAggEngines(m map[string]float64, c *agg.Component, queries []agg.Query) {
	n := min(len(queries), 64)
	finest := c.Syn.Levels() - 1
	m["agg.level_us"] = timeEach(n, func(i int) {
		e := agg.GetEngine(c, queries[i], finest)
		e.ProcessSynopsis()
		e.Release()
	}) / 1e3
	var res agg.Result
	m["agg.exact_us"] = timeEach(n, func(i int) {
		res = agg.ExactResultInto(res, c, queries[i])
	}) / 1e3
}

// probePlanes times each observability plane's per-request record path
// in isolation.
func probePlanes(m map[string]float64) {
	rec := obs.NewRecorder(256, 64)
	now := time.Now()
	m["obs.trace_ns_per_req"] = timeEach(2048, func(i int) {
		tr := rec.Start(uint64(i)+1, now)
		tr.SetRequest(uint8(wire.KindAgg), wire.SLOBestEffort, 0, 0)
		tr.Add(obs.SpanAdmission, -1, now, time.Microsecond, 0)
		for s := int32(0); s < components; s++ {
			tr.Add(obs.SpanSubOp, s, now, time.Microsecond, int64(s))
		}
		tr.Add(obs.SpanMerge, -1, now, time.Microsecond, 0)
		tr.Finish(time.Millisecond)
	})
	slo := obs.NewSLOTracker(obs.DefaultSLOBudgets())
	m["obs.slo_record_ns"] = timeEach(2048, func(int) {
		slo.Record(wire.SLOBestEffort, "", 0)
	})
	table := cost.NewTable()
	key := cost.Key{Class: wire.SLOBestEffort, Workload: "agg", Level: 3}
	m["cost.record_ns"] = timeEach(2048, func(i int) {
		table.Record(key, cost.Usage{CPUNs: 1000, Scanned: 100, WireBytes: 512, WallNs: 2000}, i%4 == 0)
	})
	auditor, err := audit.New(audit.Config{
		SampleFraction: 1.0 / aggAuditEvery,
		Replay:         func(context.Context, *audit.Sample) ([]float64, error) { return nil, nil },
	})
	if err != nil {
		return
	}
	defer auditor.Close()
	sampled := 0
	m["audit.sample_ns"] = timeEach(2048, func(i int) {
		if auditor.ShouldSample(uint64(i) + 1) {
			sampled++
		}
	})
}

// probeHost measures the box, not the program: a raw 64-byte TCP echo
// round trip and a fixed arithmetic loop. They tell a slow host from a
// slow program when a run disagrees with the baseline.
func probeHost(m map[string]float64) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err == nil {
		buf := make([]byte, 64)
		rtts := make([]float64, 0, 400)
		for i := 0; i < 400; i++ {
			t0 := time.Now()
			if _, err := c.Write(buf); err != nil {
				break
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				break
			}
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
		c.Close()
		m["host.echo_rtt_us"] = median(rtts)
	}
	<-done
	spins := make([]float64, probeRounds)
	for r := range spins {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sinkKey = x
		spins[r] = float64(time.Since(t0)) / 1e3
	}
	m["host.spin_us"] = median(spins)
}
