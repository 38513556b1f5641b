package experiments

import (
	"fmt"
	"strings"
)

// Report is a finished experiment: it renders itself as paper-style
// text. A report that also makes promises returns them from a
// Contracts() []Contract method, which Check reads.
type Report interface{ Render() string }

// Contract is one named promise a report makes — one that must hold on
// any host, unlike the timing shapes only the tests assert. It is built
// once, where the numbers it judges are computed; Detail is the
// measured evidence, readable whether the contract held or not.
type Contract struct {
	Name   string
	OK     bool
	Detail string
}

// contracts collects a report's promises in the order they are judged;
// every *compare report embeds it.
type contracts struct{ list []Contract }

func (c *contracts) promise(name string, ok bool, format string, args ...interface{}) {
	c.list = append(c.list, Contract{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Contracts returns every promise the report makes.
func (c *contracts) Contracts() []Contract { return c.list }

// renderContracts writes one "name ok|FAIL detail" row per contract.
func (c *contracts) renderContracts(b *strings.Builder) {
	width := 0
	for _, k := range c.list {
		if len(k.Name) > width {
			width = len(k.Name)
		}
	}
	for _, k := range c.list {
		mark := "ok"
		if !k.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(b, "  %-*s %-4s  %s\n", width, k.Name, mark, k.Detail)
	}
}

// Check returns nil when every contract r makes holds — a report that
// makes none passes — and otherwise an error naming each violated
// contract with its detail. It is the one judge: the CLI turns it into
// the exit code and the tests loop over the same Contracts.
func Check(r Report) error {
	c, ok := r.(interface{ Contracts() []Contract })
	if !ok {
		return nil
	}
	var bad []string
	for _, k := range c.Contracts() {
		if !k.OK {
			bad = append(bad, k.Name+": "+k.Detail)
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("%d contract(s) violated: %s", len(bad), strings.Join(bad, "; "))
}
