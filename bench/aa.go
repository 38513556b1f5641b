package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// aaSets is the number of back-to-back sets the self-check compares.
const aaSets = 3

// selfCheck is the A/A test: it runs aaSets sets of runs of this same
// binary, each set complete before the next begins (the worst case for
// host drift), every run a fresh process as under the driver, and the
// r-th run of every set with seed+r. Per workload and end-to-end
// metric it prints the widest within-set spread (distance between the
// quartiles over the median, which the driver holds to the bound) and
// the largest gap between set medians beside the bound, and fails if
// either exceeds it.
func selfCheck(ws []*workload, seed uint64, seconds float64, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for _, w := range ws {
		values[w.name] = map[string][][]float64{}
		for _, d := range endToEnd {
			values[w.name][d.Name] = make([][]float64, aaSets)
		}
	}
	for set := 0; set < aaSets; set++ {
		for _, w := range ws {
			for r := 0; r < runs; r++ {
				res, err := runChild(exe, w.name, seed+uint64(r), seconds)
				if err != nil {
					return fmt.Errorf("set %d %s run %d: %w", set, w.name, r, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d %s run %d: run not correct (%d of %d ops failed)", set, w.name, r, res.Failed, res.Attempted)
				}
				for _, d := range endToEnd {
					values[w.name][d.Name][set] = append(values[w.name][d.Name][set], res.Metrics[d.Name].Value)
				}
				line, _ := json.Marshal(res.Metrics)
				fmt.Fprintf(os.Stderr, "aa: set %d %s seed %d %s\n", set, w.name, seed+uint64(r), line)
			}
		}
	}
	fmt.Printf("| workload | metric | median | spread | gap | bound |\n|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			sets := values[w.name][d.Name]
			meds := make([]float64, aaSets)
			spread := 0.0
			for s, vals := range sets {
				meds[s] = median(vals)
				if sp := iqrShare(vals); sp > spread {
					spread = sp
				}
			}
			lo, hi := meds[0], meds[0]
			for _, v := range meds {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			gap := ratio(hi-lo, lo)
			mark := ""
			if gap > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				mark = " **over**"
				failed++
			}
			fmt.Printf("| %s | %s | %.6g | %.4f | %.4f | %.2f%s |\n", w.name, d.Name, median(meds), spread, gap, d.Bound, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metrics moved by more than their bound between runs of the same code", failed)
	}
	return nil
}

// runChild executes one untraced run in a fresh process.
func runChild(exe, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	return &res, nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's definition).
func iqrShare(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based, exclusive method
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(ratio(q(3)-q(1), median(s)))
}
