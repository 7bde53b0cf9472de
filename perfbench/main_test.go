package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchRun runs the command in-process and decodes its result line.
func benchRun(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--workdir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("decode result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestBuyColdDeterministic pins that a seed fixes the money and the search
// effort: two short buy_cold runs with one seed bill the same and enumerate
// the same bounding boxes per query.
func TestBuyColdDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	args := []string{"--workload", "buy_cold", "--seed", "7", "--seconds", "0.1"}
	var billed, boxes []float64
	for i := 0; i < 2; i++ {
		billed = append(billed, benchRun(t, append(args, "--trace", "0")...).Metrics["billed_transactions"].Value)
		boxes = append(boxes, benchRun(t, append(args, "--trace", "1")...).Metrics["rewrite.boxes_per_query"].Value)
	}
	if billed[0] != billed[1] || billed[0] <= 0 {
		t.Errorf("billed_transactions %v, want two equal positive values", billed)
	}
	if boxes[0] != boxes[1] || boxes[0] <= 0 {
		t.Errorf("rewrite.boxes_per_query %v, want two equal positive values", boxes)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that every workload in each trace
// mode prints exactly the metrics BENCHMARK.json declares, with its units,
// and that every name keeps to the allowed charset.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), "buy_cold reuse_warm daemon_mixed"; got != want {
		t.Errorf("BENCHMARK.json workloads %q, want %q", got, want)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bj.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for mode, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		if len(defs) != len(want[mode]) {
			t.Errorf("trace %s: command declares %d metrics, BENCHMARK.json %d", mode, len(defs), len(want[mode]))
		}
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q breaks the charset", d.name)
			}
			if u, ok := want[mode][d.name]; !ok || u != d.unit {
				t.Errorf("trace %s: metric %s [%s] not in BENCHMARK.json as declared (unit %q)", mode, d.name, d.unit, u)
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, w := range names {
		for _, mode := range []string{"0", "1"} {
			res := benchRun(t, "--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", mode)
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit != want[mode][name] {
					t.Errorf("%s trace %s: %s printed with unit %q, want %q", w, mode, name, m.Unit, want[mode][name])
				}
			}
			if len(got) != len(want[mode]) {
				sort.Strings(got)
				t.Errorf("%s trace %s printed %d metrics %v, want %d", w, mode, len(got), got, len(want[mode]))
			}
		}
	}
}
