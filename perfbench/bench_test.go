package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, pkg := range cpuPackages {
		if !slices.ContainsFunc(perLayer, func(m metric) bool { return m.name == "cpu."+pkg }) {
			t.Errorf("no cpu.%s per-layer metric", pkg)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		tab  []metric
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.tab) {
			t.Errorf("BENCHMARK.json lists %d metrics, the table %d", len(c.file), len(c.tab))
			continue
		}
		for i, m := range c.tab {
			f := c.file[i]
			if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, table %s %s %s", i, f, m.name, m.unit, m.better)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at the self-test size, untraced
// and traced, and checks that each run emits every named metric with its
// unit and matches a committed digest: its own at seed 1, the reference
// episode's at seed 2, which has none.
func TestWorkloadsTiny(t *testing.T) {
	bf := loadBenchmark(t)
	for _, w := range workloads {
		for _, c := range []struct {
			seed  int64
			trace string
		}{{1, "0"}, {1, "1"}, {2, "0"}} {
			t.Run(fmt.Sprintf("%s/seed%d/trace%s", w.name, c.seed, c.trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				o := options{workload: w.name, seed: c.seed, trace: c.trace == "1", tiny: true, out: t.TempDir()}
				code := runOptions(o, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d; stderr: %s\nstdout: %s", code, &stderr, &stdout)
				}
				if !strings.Contains(stdout.String(), "matches committed "+w.name+"/tiny/1") {
					t.Errorf("run did not check the committed digest:\n%s", &stdout)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if c.trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if c.trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestAlteredResultFailsDigest perturbs each workload's simulated
// configuration and checks that the committed digest catches it, both at
// a seed with a committed digest and at one without, where the reference
// episode must catch it.
func TestAlteredResultFailsDigest(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				res, err := bench(&w, options{workload: w.name, seed: seed, tiny: true, perturb: true}, &bytes.Buffer{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Correct || res.Failed != res.Attempted {
					t.Errorf("altered run passed: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
			})
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"container/heap.up", "container/heap.Push", "element/internal/sim.(*Engine).At"}, "sim"},
		{[]string{"element/internal/telemetry/stream.(*Sketch).Observe"}, "telemetry"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "element/internal/tcp.(*Endpoint).send"}, "alloc_gc"},
		{[]string{"runtime.futex", "runtime.chansend", "element/internal/sim.(*Proc).park"}, "sched"},
		{[]string{"runtime.memmove", "main.main"}, "other"},
		{[]string{"element/internal/cc.(*Cubic).OnAck", "element/internal/tcp.(*Endpoint).HandleAck"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
