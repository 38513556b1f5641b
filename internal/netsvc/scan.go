package netsvc

import (
	"context"
	"sync/atomic"
)

// scanCounter tallies the rows/postings a backend computation touched
// (the handler skeleton, newBackend, credits it). Component servers
// install one in the request context only when the request is traced, so
// the untraced hot path stays allocation-free.
type scanCounter struct {
	n atomic.Uint64
}

type scanCounterKey struct{}

func withScanCounter(ctx context.Context, c *scanCounter) context.Context {
	return context.WithValue(ctx, scanCounterKey{}, c)
}

func scanCounterFrom(ctx context.Context) *scanCounter {
	c, _ := ctx.Value(scanCounterKey{}).(*scanCounter)
	return c
}
