package netsvc

import (
	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/service"
	"accuracytrader/internal/topk"
	"accuracytrader/internal/wire"
)

// GlobalDocStride globalizes shard-local search doc ids in composed
// replies: global id = subset*GlobalDocStride + doc (the convention of
// the experiment replays).
const GlobalDocStride = 10_000_000

// subReplyOf extracts the decoded sub-reply of an answered sub-result.
func subReplyOf(sr service.SubResult) *wire.SubReply {
	if !sr.Answered() {
		return nil
	}
	rep, _ := sr.Value.(*wire.SubReply)
	return rep
}

// SubStatuses maps gathered sub-results to per-subset wire statuses
// for the composed reply.
func SubStatuses(subs []service.SubResult) []uint8 {
	out := make([]uint8, len(subs))
	for i, sr := range subs {
		switch {
		case sr.Skipped:
			out[i] = wire.StatusSkipped
		case sr.Err == ErrQueueFull:
			out[i] = wire.StatusBusy
		case sr.Err != nil:
			out[i] = wire.StatusErr
		default:
			out[i] = wire.StatusOK
		}
	}
	return out
}

// ExtrapolateAgg rescales an aggregation answer composed over answered
// of total strata (a partial answer frontend.Claim let through) up to
// the full population: sums and counts grow by
// total/answered (unbiased under the uniform sharding of the replays),
// variances by its square — the CLT bounds honestly widen to cover the
// unseen strata instead of silently skewing low.
func ExtrapolateAgg(res *wire.AggResult, answered, total int) {
	if res == nil || answered <= 0 || answered >= total {
		return
	}
	f := float64(total) / float64(answered)
	f2 := f * f
	for i := range res.Sum {
		res.Sum[i] *= f
		res.SumVar[i] *= f2
	}
	for i := range res.Cnt {
		res.Cnt[i] *= f
		res.CntVar[i] *= f2
	}
}

// ComposeCF merges CF sub-results additively (the partial-result merge
// contract of cf.Result): skipped or failed components simply
// contribute nothing, exactly as in the in-process composition.
func ComposeCF(subs []service.SubResult) *wire.CFResult {
	var res cf.Result
	for _, sr := range subs {
		rep := subReplyOf(sr)
		if rep == nil || rep.CF == nil {
			continue
		}
		part := cf.Result{Num: rep.CF.Num, Den: rep.CF.Den}
		if res.Num == nil {
			res = cf.NewResult(len(part.Num))
		}
		if len(part.Num) != len(res.Num) {
			continue // mis-shaped partial: drop rather than corrupt
		}
		res.Merge(part)
	}
	return &wire.CFResult{Num: res.Num, Den: res.Den}
}

// ComposeSearch merges per-component hit lists into a global top-k via
// the same bounded selection kernel the engines use (internal/topk),
// globalizing shard-local doc ids with GlobalDocStride. The result is one
// object, its hits inline up to wire.DefaultK (wire.SearchPayload).
func ComposeSearch(subs []service.SubResult, k int) *wire.SearchResult {
	var sel topk.Selector
	sel.Reset(k)
	for _, sr := range subs {
		rep := subReplyOf(sr)
		if rep == nil || rep.Search == nil {
			continue
		}
		// Globalize on the gathered subset (always set by the runtime),
		// not the reply's echo of it, so directly-invoked handlers
		// compose identically to server-filled replies.
		for _, h := range rep.Search.Hits {
			sel.Offer(sr.Subset*GlobalDocStride+int(h.Doc), h.Score)
		}
	}
	items := sel.Sorted()
	res := new(wire.SearchPayload).Init()
	if len(items) > cap(res.Hits) {
		res.Hits = make([]wire.Hit, 0, len(items))
	}
	for _, it := range items {
		res.Hits = append(res.Hits, wire.Hit{Doc: int32(it.ID), Score: it.Score})
	}
	return res
}

// ComposeAgg merges aggregation sub-results additively, variances
// included — the composed reply stays bounds-aware: converting it with
// AggResultOf yields an agg.Result whose Estimate/Bound methods work
// on the merged answer.
func ComposeAgg(subs []service.SubResult) *wire.AggResult {
	var res agg.Result
	for _, sr := range subs {
		rep := subReplyOf(sr)
		if rep == nil || rep.Agg == nil {
			continue
		}
		part := AggResultOf(rep.Agg)
		if res.Sum == nil {
			res = agg.NewResult(len(part.Sum))
		}
		if len(part.Sum) != len(res.Sum) {
			continue
		}
		res.Merge(part)
	}
	return &wire.AggResult{Sum: res.Sum, Cnt: res.Cnt, SumVar: res.SumVar, CntVar: res.CntVar}
}

// AggResultOf views a wire aggregation result as an agg.Result, so the
// application's Estimate/Bound/Estimates machinery is reused verbatim
// on composed network replies.
func AggResultOf(r *wire.AggResult) agg.Result {
	return agg.Result{Sum: r.Sum, Cnt: r.Cnt, SumVar: r.SumVar, CntVar: r.CntVar}
}

// CFResultOf views a wire CF result as a cf.Result (for Predictions).
func CFResultOf(r *wire.CFResult) cf.Result {
	return cf.Result{Num: r.Num, Den: r.Den}
}
