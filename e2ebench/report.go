package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run found: gated end-to-end metrics, per-layer
// metrics, the issue-named detail lines and the correctness tally.
type report struct {
	a         args
	e2e       map[string]metric
	layers    map[string]metric
	detail    []string // human-readable metric lines (name, value, unit, samples)
	notes     []string
	attempted int64
	failed    int64
	failures  []string
}

func newReport(a args) *report {
	rep := &report{a: a, e2e: make(map[string]metric), layers: make(map[string]metric)}
	for _, m := range perLayer {
		rep.layers[m.name] = metric{0, m.unit}
	}
	return rep
}

func (rep *report) note(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

// show adds one human-readable metric line.
func (rep *report) show(name string, v float64, unit string, samples int) {
	line := fmt.Sprintf("%-28s %12.4f %-6s", name, v, unit)
	if samples > 0 {
		line += fmt.Sprintf(" (n=%d)", samples)
	}
	rep.detail = append(rep.detail, line)
}

// setLayer sets a per-layer metric, keeping its catalogue unit.
func (rep *report) setLayer(name string, v float64) {
	m, ok := rep.layers[name]
	if !ok {
		panic("e2ebench: per-layer metric not in catalogue: " + name)
	}
	m.Value = v
	rep.layers[name] = m
}

// dumpSpans writes the traced run's spans next to its rollup.
func (rep *report) dumpSpans(spans []span) error {
	dir := filepath.Join(rep.a.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", rep.a.workload, rep.a.seed))
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return err
	}
	rollup := map[string]any{"workload": rep.a.workload, "seed": rep.a.seed, "layers": rep.layers, "spans": len(spans)}
	data, err := json.MarshalIndent(rollup, "", "  ")
	if err != nil {
		return fmt.Errorf("rollup: %w", err)
	}
	if err := os.WriteFile(base+".rollup.json", data, 0o644); err != nil {
		return fmt.Errorf("rollup: %w", err)
	}
	rep.note("span dump %s.spans.jsonl, per-layer rollup %s.rollup.json", base, base)
	return nil
}

// print writes the human-readable report and, as the last line, the
// JSON result: end-to-end metrics untraced, per-layer metrics traced.
func (rep *report) print() {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", rep.a.workload, rep.a.seed, rep.a.seconds, rep.a.trace)
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, d := range rep.detail {
		fmt.Println("  ", d)
	}
	if rep.a.trace {
		for _, m := range perLayer {
			v := rep.layers[m.name]
			fmt.Printf("   layer %-34s %14.4f %-6s -> %s\n", m.name, v.Value, v.Unit, m.moves)
		}
	}
	for _, f := range rep.failures {
		fmt.Println("  FAILED:", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && len(rep.failures) == 0, rep.attempted, rep.failed, rep.e2e}
	if rep.a.trace {
		out.Metrics = rep.layers
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}
