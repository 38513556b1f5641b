package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden renders in testdata/")

// goldenRenders are the seeded, discrete-event experiments whose renders
// are a pure function of the scale: any refactor of the serving or
// experiment code must leave them byte-identical.
var goldenRenders = []string{"table1", "fig4", "fig5", "fig7", "headline", "overload", "aggcompare"}

// TestGoldenRenders compares each deterministic render at QuickScale
// with its golden file in testdata/; `go test -run TestGoldenRenders
// -update` rewrites them. The files are amd64 renders: arm64 fuses
// multiply-adds, which moves the last printed digit of some figures.
func TestGoldenRenders(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden renders are amd64 floating point")
	}
	if testing.Short() {
		t.Skip("runs seven experiments")
	}
	sc := QuickScale()
	byName := map[string]Experiment{}
	for _, e := range Registry() {
		byName[e.Name] = e
	}
	kept := map[string]Report{}
	var report func(name string) Report
	report = func(name string) Report {
		if r, ok := kept[name]; ok {
			return r
		}
		e := byName[name]
		var r Report
		var err error
		if e.Compose == nil {
			r, err = e.Run(sc)
		} else {
			from := make([]Report, len(e.From))
			for i, f := range e.From {
				from[i] = report(f)
			}
			r, err = e.Compose(sc, from)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kept[name] = r
		return r
	}
	for _, name := range goldenRenders {
		got := report(name).Render()
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s render differs from %s (rerun with -update only for an intended change):\n--- got\n%s\n--- want\n%s", name, path, got, want)
		}
	}
}
