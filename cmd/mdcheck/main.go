// Command mdcheck is the repository's markdown link and anchor checker,
// run by CI's docs job. It scans the given markdown files for inline
// links and images and reports:
//
//   - relative file targets that do not exist;
//   - anchor fragments (#section, README.md#section) that match no
//     heading in the target file, using GitHub's slug rules.
//
// External links (http/https/mailto) are not fetched. Exit status is 1
// if any problem is found.
//
// Usage: mdcheck README.md [EXPERIMENTS.md ...] (any markdown files)
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// linkRe matches inline markdown links/images: [text](target). Nested
// brackets and titles are out of scope for this repository's docs.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// codeFenceRe matches fenced code block delimiters, capturing the
// marker so a block opened with ``` is only closed by ``` (a ~~~ line
// inside it is content, and vice versa).
var codeFenceRe = regexp.MustCompile("^\\s*(```|~~~)")

// fenceStep updates the open-fence marker for one line: it returns the
// new marker ("" = outside any fence) and whether the line itself is a
// fence delimiter.
func fenceStep(open, line string) (string, bool) {
	m := codeFenceRe.FindStringSubmatch(line)
	if m == nil {
		return open, false
	}
	switch open {
	case "":
		return m[1], true // opening fence
	case m[1]:
		return "", true // matching closer
	default:
		return open, false // other marker inside an open fence: content
	}
}

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*)$`)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mdcheck FILE.md [FILE.md ...]")
		os.Exit(2)
	}
	problems := 0
	for _, file := range os.Args[1:] {
		problems += checkFile(file)
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

func checkFile(file string) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", file, err)
		return 1
	}
	problems := 0
	fence := ""
	for i, line := range strings.Split(string(data), "\n") {
		var delim bool
		if fence, delim = fenceStep(fence, line); delim || fence != "" {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			if msg := checkTarget(file, m[1]); msg != "" {
				fmt.Fprintf(os.Stderr, "%s:%d: %s\n", file, i+1, msg)
				problems++
			}
		}
	}
	return problems
}

// checkTarget validates one link target relative to the file holding it.
func checkTarget(file, target string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return "" // external; not fetched
	}
	path, frag, _ := strings.Cut(target, "#")
	resolved := file
	if path != "" {
		resolved = filepath.Join(filepath.Dir(file), path)
		if _, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", target, resolved)
		}
	}
	if frag == "" {
		return ""
	}
	if !strings.HasSuffix(strings.ToLower(resolved), ".md") {
		return "" // anchors into non-markdown files are not checked
	}
	slugs, err := headingSlugs(resolved)
	if err != nil {
		return fmt.Sprintf("broken anchor %q: %v", target, err)
	}
	if !slugs[frag] {
		return fmt.Sprintf("broken anchor %q: no heading slug %q in %s", target, frag, resolved)
	}
	return ""
}

// headingSlugs collects the GitHub-style slugs of a markdown file's
// headings (duplicates get -1, -2, ... suffixes).
func headingSlugs(file string) (map[string]bool, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	counts := map[string]int{}
	fence := ""
	for _, line := range strings.Split(string(data), "\n") {
		var delim bool
		if fence, delim = fenceStep(fence, line); delim || fence != "" {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := slugify(m[1])
		if n := counts[s]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			slugs[s] = true
		}
		counts[s]++
	}
	return slugs, nil
}

// inlineMarkupRe strips emphasis/code markers before slugification.
// Underscores are NOT stripped: GitHub keeps literal underscores in
// heading slugs (at the cost of mis-slugging the rare _emphasized_
// heading word, which this repository's docs do not use).
var inlineMarkupRe = regexp.MustCompile("[`*]")

// slugify applies GitHub's anchor rules: lowercase, strip punctuation,
// spaces to hyphens.
func slugify(heading string) string {
	// Drop trailing link targets in headings like "## [name](url)".
	heading = linkRe.ReplaceAllStringFunc(heading, func(s string) string {
		open := strings.Index(s, "[")
		close := strings.Index(s, "]")
		return s[open+1 : close]
	})
	heading = inlineMarkupRe.ReplaceAllString(heading, "")
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' ||
			r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteRune('-')
		}
	}
	return b.String()
}
