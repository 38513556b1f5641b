package main

import (
	"errors"
	"strings"
	"testing"

	"accuracytrader/internal/experiments"
)

// fakeReport is a canned experiments.Report with contracts.
type fakeReport struct {
	text      string
	contracts []experiments.Contract
}

func (f fakeReport) Render() string                    { return f.text }
func (f fakeReport) Contracts() []experiments.Contract { return f.contracts }

// counting returns a catalogue entry whose Run counts its calls.
func counting(name string, calls map[string]int, rep experiments.Report, err error) experiments.Experiment {
	return experiments.Experiment{Name: name, Artifact: "test", About: "fake " + name, Title: "Section " + name,
		Run: func(experiments.Scale) (experiments.Report, error) {
			calls[name]++
			return rep, err
		}}
}

// TestRunChecksContracts is the exit-code gate: a violated contract
// makes run return an error naming the contract and its detail (after
// the report is printed), all-passing prints banner, render and timing
// line and returns nil, and an entry whose Run fails propagates.
func TestRunChecksContracts(t *testing.T) {
	calls := map[string]int{}
	boom := errors.New("rig would not start")
	reg := []experiments.Experiment{
		counting("good", calls, fakeReport{"GOOD REPORT", []experiments.Contract{{Name: "coalescing", OK: true, Detail: "1 fan-out"}}}, nil),
		counting("plain", calls, fakeReport{text: "PLAIN REPORT"}, nil),
		counting("bad", calls, fakeReport{"BAD REPORT", []experiments.Contract{
			{Name: "wire parity cf", OK: false, Detail: "reply 2 differs"},
			{Name: "wire parity agg", OK: true, Detail: "3 requests"},
		}}, nil),
		counting("broken", calls, nil, boom),
	}
	for _, name := range []string{"good", "plain"} {
		var out strings.Builder
		if err := run(&out, reg, name, experiments.QuickScale()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{"== Section " + name + " ==", strings.ToUpper(name) + " REPORT", "[Section " + name + " took "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output missing %q:\n%s", name, want, out.String())
			}
		}
	}

	var out strings.Builder
	err := run(&out, reg, "bad", experiments.QuickScale())
	if err == nil {
		t.Fatal("a violated contract must fail the run")
	}
	for _, want := range []string{"bad", "wire parity cf", "reply 2 differs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "wire parity agg") {
		t.Errorf("error %q names a contract that held", err)
	}
	if !strings.Contains(out.String(), "BAD REPORT") {
		t.Errorf("the failing report was not printed:\n%s", out.String())
	}

	if err := run(&out, reg, "broken", experiments.QuickScale()); !errors.Is(err, boom) {
		t.Fatalf("run error not propagated: %v", err)
	}
}

// TestRunAllRunsEverything: under `all` a violated contract or a failed
// Run stops nothing — every entry after it runs and prints, the closing
// table lists every contract's verdict and every error, and the joined
// error names each failure.
func TestRunAllRunsEverything(t *testing.T) {
	calls := map[string]int{}
	boom := errors.New("rig would not start")
	reg := []experiments.Experiment{
		counting("bad", calls, fakeReport{"BAD REPORT", []experiments.Contract{
			{Name: "wire parity cf", OK: false, Detail: "reply 2 differs"},
			{Name: "wire parity agg", OK: true, Detail: "3 requests"},
		}}, nil),
		counting("broken", calls, nil, boom),
		{Name: "broken2", Artifact: "test", About: "alias of broken", AliasOf: "broken"},
		counting("good", calls, fakeReport{"GOOD REPORT", []experiments.Contract{{Name: "coalescing", OK: true, Detail: "1 fan-out"}}}, nil),
	}
	var out strings.Builder
	err := run(&out, reg, "all", experiments.QuickScale())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("run error %v, want one that joins the failed Run", err)
	}
	for _, want := range []string{"bad", "wire parity cf", "reply 2 differs", "broken"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	for name, n := range map[string]int{"bad": 1, "broken": 1, "good": 1} {
		if calls[name] != n {
			t.Errorf("%s ran %d times, want %d", name, calls[name], n)
		}
	}
	_, verdicts, ok := strings.Cut(out.String(), "== verdicts ==")
	if !ok || !strings.Contains(out.String(), "GOOD REPORT") {
		t.Fatalf("output lacks the report after the failures or the verdict table:\n%s", out.String())
	}
	for _, row := range [][]string{{"bad", "wire parity cf", "FAIL"}, {"bad", "wire parity agg", "ok"},
		{"broken", "ERROR", "rig would not start"}, {"good", "coalescing", "ok"}, {"2 of 3 experiment(s) failed"}} {
		found := false
		for _, line := range strings.Split(verdicts, "\n") {
			all := true
			for _, w := range row {
				all = all && strings.Contains(line, w)
			}
			found = found || all
		}
		if !found {
			t.Errorf("verdict table has no row with %q:\n%s", row, verdicts)
		}
	}
}

// TestRunAllRunsEachOnce pins the run-once rule: under `all` an alias
// prints nothing its target already printed, a composed entry reads the
// kept reports of its parts, and every distinct Run executes exactly
// once; asked for alone, the composed entry computes its parts silently.
func TestRunAllRunsEachOnce(t *testing.T) {
	calls := map[string]int{}
	alias := experiments.Experiment{Name: "a2", Artifact: "test", About: "alias of a", AliasOf: "a"}
	sum := experiments.Experiment{Name: "sum", Artifact: "test", About: "composed", Title: "Section sum", From: []string{"a", "b"},
		Compose: func(_ experiments.Scale, from []experiments.Report) (experiments.Report, error) {
			calls["sum"]++
			return fakeReport{text: "SUM OF " + from[0].Render() + " AND " + from[1].Render()}, nil
		}}
	reg := []experiments.Experiment{
		counting("a", calls, fakeReport{text: "REPORT-A"}, nil), alias,
		counting("b", calls, fakeReport{text: "REPORT-B"}, nil), sum,
	}

	var out strings.Builder
	if err := run(&out, reg, "all", experiments.QuickScale()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "sum"} {
		if calls[name] != 1 {
			t.Errorf("%s ran %d times under all, want 1", name, calls[name])
		}
	}
	for want, n := range map[string]int{"== Section a ==": 1, "== Section b ==": 1, "== Section sum ==": 1, "SUM OF REPORT-A AND REPORT-B": 1, "REPORT-A": 2, "took": 3} {
		if got := strings.Count(out.String(), want); got != n {
			t.Errorf("%q printed %d times, want %d:\n%s", want, got, n, out.String())
		}
	}

	out.Reset()
	if err := run(&out, reg, "a2", experiments.QuickScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== Section a ==") || !strings.Contains(out.String(), "REPORT-A") {
		t.Errorf("an alias asked for alone must print its target's section:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, reg, "sum", experiments.QuickScale()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Section a") || strings.Contains(out.String(), "Section b") {
		t.Errorf("a composed entry run alone must compute its parts silently:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SUM OF REPORT-A AND REPORT-B") {
		t.Errorf("composed report missing:\n%s", out.String())
	}
}

// TestUnknownExperimentPrintsCatalogue pins the misuse behaviour: an
// unknown -exp name prints the registry-generated catalogue and
// returns an error (so main exits non-zero) — a typo in a script fails
// loudly instead of silently doing nothing.
func TestUnknownExperimentPrintsCatalogue(t *testing.T) {
	var out strings.Builder
	err := run(&out, experiments.Registry(), "no-such-experiment", experiments.QuickScale())
	if err == nil {
		t.Fatal("unknown experiment must return an error")
	}
	if !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("error does not name the bad experiment: %v", err)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("catalogue output missing %q:\n%s", name, out.String())
		}
	}
}

// TestListPrintsCatalogue keeps -exp list on the same single source.
func TestListPrintsCatalogue(t *testing.T) {
	var out strings.Builder
	if err := run(&out, experiments.Registry(), "list", experiments.QuickScale()); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Registry() {
		if !strings.Contains(out.String(), e.Name) || !strings.Contains(out.String(), e.About) {
			t.Fatalf("list output missing %q", e.Name)
		}
	}
}

// TestServeRejectsBadConfig covers the -serve argument validation.
func TestServeRejectsBadConfig(t *testing.T) {
	sc := experiments.QuickScale()
	if err := runServe("bogus", "agg", "", "", "", "", 1, sc); err == nil {
		t.Fatal("unknown role must error")
	}
	if err := runServe("component", "agg", "", "", "", "", 1, sc); err == nil {
		t.Fatal("component without -listen must error")
	}
	if err := runServe("aggregator", "agg", "", "", "", "", 1, sc); err == nil {
		t.Fatal("aggregator without -peers must error")
	}
	if err := runServe("client", "agg", "", "", "", "", 1, sc); err == nil {
		t.Fatal("client without -peers must error")
	}
	if err := runServe("client", "agg", "", "a:1,b:2", "", "", 1, sc); err == nil {
		t.Fatal("client with multiple peers must error")
	}
	if err := runServe("component", "nope", "127.0.0.1:0", "", "", "", 1, sc); err == nil {
		t.Fatal("unknown workload must error")
	}
}
