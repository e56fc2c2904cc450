package main

import (
	_ "embed"
	"encoding/json"
)

//go:embed expected.json
var expectedJSON []byte

// checkPins compares a seed-1 run's exact counts with expected.json: the
// counts are a function of (workload, seed) alone, so any difference means
// the program's behaviour changed, not its speed. Keys are
// "<workload>/untraced" and "<workload>/traced"; a count the run produced
// but the file does not list is not pinned. At other seeds only the
// invariants inside each workload are checked.
func checkPins(name string, traced bool, o *outcome) {
	var all map[string]map[string]int64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		o.problemf("expected.json: %v", err)
		return
	}
	key := name + "/untraced"
	if traced {
		key = name + "/traced"
	}
	for count, want := range all[key] {
		got, ok := o.exact[count]
		switch {
		case !ok:
			o.problemf("pinned count %s was not produced", count)
		case got != want:
			o.problemf("%s = %d, expected.json pins %d", count, got, want)
		}
	}
}
