package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestCacheCompareQuick runs the result-cache comparison at quick
// scale and pins the acceptance behaviours from the issue: cache hits
// never serve below a Bounded class's accuracy floor, singleflight
// coalescing collapses duplicate concurrent misses to one backend
// fan-out, and under Zipf skew >= 1.0 the cached configuration beats
// the no-cache baseline on p99.9 (and goodput).
func TestCacheCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop load run: seconds per configuration")
	}
	cc, err := RunCacheCompare(QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	// Singleflight (N concurrent identical misses -> one fan-out, the
	// rest shared) and the hit rule's floor.
	checkContracts(t, "cachecompare", cc)

	for _, skew := range ccSkews {
		nocache, cached := cc.Row(skew, false), cc.Row(skew, true)
		if nocache == nil || cached == nil {
			t.Fatalf("missing rows at skew %g", skew)
		}
		for _, r := range []*CacheRow{nocache, cached} {
			if r.Calls < 20 {
				t.Fatalf("skew %g cached=%v measured only %d requests", skew, r.Cached, r.Calls)
			}
		}
		// Paired rows are paired: the same arrivals past the warm-up cut.
		if nocache.Calls != cached.Calls {
			t.Fatalf("skew %g: no-cache row measured %d requests, cached row %d", skew, nocache.Calls, cached.Calls)
		}
		// The hit rule is hard: no Bounded request is ever served a
		// cached answer whose recorded accuracy is below its floor.
		if cached.FloorViolations != 0 {
			t.Fatalf("skew %g: %d cache hits served below a Bounded floor", skew, cached.FloorViolations)
		}
		if nocache.HitPct != 0 {
			t.Fatalf("skew %g: no-cache row reports hits (%f%%)", skew, nocache.HitPct)
		}
		if skew >= 1.0 {
			// The headline: a warm cache pulls the backend below
			// saturation, so the tail collapses and goodput recovers.
			if calm(t, fmt.Sprintf("skew %g: cached p99.9 < no-cache p99.9", skew), cached.MaxLagMs, nocache.MaxLagMs) &&
				cached.P999Ms >= nocache.P999Ms {
				t.Fatalf("skew %g: cached p99.9 %.1f ms does not beat no-cache %.1f ms",
					skew, cached.P999Ms, nocache.P999Ms)
			}
			if cached.Goodput <= nocache.Goodput {
				t.Fatalf("skew %g: cached goodput %.1f/s does not beat no-cache %.1f/s",
					skew, cached.Goodput, nocache.Goodput)
			}
			if cached.HitPct < 10 {
				t.Fatalf("skew %g: hit rate %.1f%% too low to mean anything", skew, cached.HitPct)
			}
		}
	}

	// Hit rate must grow with skew — that is the Zipf story.
	if h1, h2 := cc.Row(1.0, true).HitPct, cc.Row(1.4, true).HitPct; h2 <= h1 {
		t.Fatalf("hit rate did not grow with skew: %.1f%% at 1.0 vs %.1f%% at 1.4", h1, h2)
	}

	out := cc.Render()
	for _, want := range []string{"CACHECOMPARE", "floorViol", "hit%", "nocache", "nominal", "realised", "max send lag"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// Row returns the row at one skew with/without the cache (nil if none).
func (cc *CacheCompare) Row(skew float64, cached bool) *CacheRow {
	for _, r := range cc.Rows {
		if r.Skew == skew && r.Cached == cached {
			return r
		}
	}
	return nil
}
