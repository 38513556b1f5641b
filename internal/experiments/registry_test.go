package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocCoversRegistry is the anti-drift check: every
// registered experiment name must be mentioned (as `name`) in
// EXPERIMENTS.md, and every extension must be named in README.md's
// package-table row for internal/experiments — so adding an experiment
// without documenting it fails CI instead of rotting silently.
func TestExperimentsDocCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `internal/experiments` |") {
			row = line
		}
	}
	if row == "" {
		t.Fatal("README.md has no package-table row for `internal/experiments`")
	}
	for _, e := range Registry() {
		if !strings.Contains(string(doc), fmt.Sprintf("`%s`", e.Name)) {
			t.Errorf("EXPERIMENTS.md does not mention experiment `%s`", e.Name)
		}
		if e.Artifact == "extension" && !strings.Contains(row, e.Name) {
			t.Errorf("README.md's `internal/experiments` row does not list the %s extension", e.Name)
		}
	}
}

func TestRegistryWellFormed(t *testing.T) {
	// runs holds the entries seen so far that compute their own report:
	// the only legal targets of an alias or a composition, which must
	// therefore follow them in catalogue order.
	seen, runs := map[string]bool{}, map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Artifact == "" || e.About == "" {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate registry entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Name != strings.ToLower(e.Name) || strings.ContainsAny(e.Name, " \t") {
			t.Fatalf("registry name %q not a flat lowercase token", e.Name)
		}
		switch {
		case e.AliasOf != "":
			if !runs[e.AliasOf] || e.Run != nil || e.Compose != nil || e.From != nil {
				t.Fatalf("alias %q must name an earlier entry with a Run and nothing else", e.Name)
			}
		case e.Compose != nil:
			if e.Title == "" || e.Run != nil || len(e.From) == 0 {
				t.Fatalf("composed entry %q needs a title and its parts, and no Run", e.Name)
			}
			for _, from := range e.From {
				if !runs[from] {
					t.Fatalf("composed entry %q reads %q, which is not an earlier entry with a Run", e.Name, from)
				}
			}
		default:
			if e.Title == "" || e.Run == nil || e.From != nil {
				t.Fatalf("entry %q needs a title and a Run", e.Name)
			}
			runs[e.Name] = true
		}
	}
	for _, reserved := range []string{"list", "all"} {
		if seen[reserved] {
			t.Fatalf("registry must not contain the CLI meta-command %q", reserved)
		}
	}
}
