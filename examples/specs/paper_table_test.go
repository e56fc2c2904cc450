package specs_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// number matches a decimal number that is not the tail of a word or of
// another number ("B2", "0x1f" and "1.2.3" yield nothing past their
// first digits), so a cell's "B2→B3" names bridges, not the numbers 2
// and 3.
var number = regexp.MustCompile(`(?:^|[^0-9A-Za-z.])(\d+(?:\.\d+)?)`)

var goldenName = regexp.MustCompile("`([^`]+\\.golden)`")

func numbers(s string) []string {
	var out []string
	for _, m := range number.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestPaperTableReadsGoldens holds EXPERIMENTS.md's "Paper figures" table
// to the program: every number in a row's headline cell must be printed
// by one of the goldens the row cites, so the table can only quote what
// a golden pins byte for byte. A golden named without a directory is in
// examples/specs; one with a directory is relative to the repository
// root.
func TestPaperTableReadsGoldens(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## Paper figures")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Paper figures" section`)
	}
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "|") || len(cells) != 3 || strings.HasPrefix(cells[1], "---") || cells[0] == "Experiment" {
			continue
		}
		rows++
		cites := goldenName.FindAllStringSubmatch(cells[2], -1)
		if len(cites) == 0 {
			t.Errorf("%s: cites no golden", cells[0])
			continue
		}
		printed := map[string]bool{}
		for _, c := range cites {
			path := c[1]
			if !strings.Contains(path, "/") {
				path = filepath.Join("examples", "specs", path)
			}
			golden, err := os.ReadFile(filepath.Join("..", "..", path))
			if err != nil {
				t.Fatalf("%s: %v", cells[0], err)
			}
			for _, n := range numbers(string(golden)) {
				printed[n] = true
			}
		}
		for _, n := range numbers(cells[1]) {
			if !printed[n] {
				t.Errorf("%s: %q quotes %s, which its goldens do not print", cells[0], cells[1], n)
			}
		}
	}
	if rows != 10 {
		t.Fatalf("parsed %d rows of the paper table, want 10", rows)
	}
}
