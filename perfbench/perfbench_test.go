package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"lrseluge/internal/sim"
)

// runToy runs one workload at toy size and returns the parsed result line
// and the full output.
func runToy(t *testing.T, sp spec, w workload, traced bool) (resultJSON, string) {
	t.Helper()
	o := options{workload: sp.name, seed: 7, seconds: 0.01, trace: traced}
	r := run(sp, w, o, time.Now())
	var buf bytes.Buffer
	if err := report(&buf, sp, o, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return got, buf.String()
}

// TestSmokeEveryMetricWithUnit runs every workload at toy size in both
// modes and checks that each result line holds exactly the mode's metrics,
// each with its catalogued unit, that a traced run also prints the
// workload's own layer metrics, and that no job fails.
func TestSmokeEveryMetricWithUnit(t *testing.T) {
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			got, out := runToy(t, sp, sp.build(true), traced)
			want := endToEnd
			if traced {
				want = perLayer
				for _, name := range sp.layers {
					if units[name] == "" || !strings.Contains(out, "\n"+name+" ") {
						t.Errorf("%s: layer metric %s not printed with a unit", sp.name, name)
					}
				}
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 2 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", sp.name, traced, got.Correct, got.Attempted, got.Failed, out)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, traced, len(got.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := got.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.name, traced, name)
					continue
				}
				if m.Unit == "" || m.Unit != units[name] {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", sp.name, traced, name, m.Unit, units[name])
				}
			}
		}
	}
}

// TestFailingJobCounted runs disk jobs whose horizon ends long before any
// node can finish, and checks that each is counted as failed.
func TestFailingJobCounted(t *testing.T) {
	sp, _ := findSpec("disk5k")
	got, out := runToy(t, sp, &disk{nodes: 200, imageKB: 2, horizon: sim.Second}, false)
	if got.Correct || got.Failed != got.Attempted || got.Attempted != sp.minJobs+1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every one of %d jobs failed\n%s",
			got.Correct, got.Attempted, got.Failed, sp.minJobs+1, out)
	}
	if !strings.Contains(out, "reachable from node 0 left incomplete") {
		t.Fatalf("failure reason not reported:\n%s", out)
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json declares exactly the
// metrics the result lines hold, with the same units.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range manifest.Workloads {
		workloads = append(workloads, w.Name)
		if _, ok := findSpec(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", len(workloads), len(specs))
	}
	check := func(declared []metric, emitted []string) {
		t.Helper()
		var names []string
		for _, m := range declared {
			names = append(names, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, units[m.Name])
			}
		}
		sort.Strings(names)
		if strings.Join(names, " ") != strings.Join(emitted, " ") {
			t.Errorf("declared metrics\n  %v\ndiffer from emitted\n  %v", names, emitted)
		}
	}
	check(manifest.EndToEnd, sortedSet(endToEnd))
	check(manifest.PerLayer, sortedSet(perLayer))
}

func sortedSet(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func TestJobSeedsDistinctAndStable(t *testing.T) {
	a, b := jobSeeds(3, 50), jobSeeds(3, 50)
	seen := map[int64]bool{}
	for i, s := range a {
		if s != b[i] || s < 0 || seen[s] {
			t.Fatalf("seed %d: %d (again %d) not distinct, stable and non-negative", i, s, b[i])
		}
		seen[s] = true
	}
	if jobSeeds(4, 1)[0] == a[0] {
		t.Fatal("different workload seeds gave the same first job seed")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 25; i++ {
		xs = append(xs, float64(i))
	}
	if v, _ := tail(xs); v != 15 {
		t.Fatalf("tail of 1..25 = %v, want 15 (ten values beyond it)", v)
	}
	if v, note := tail(xs[:5]); v != 5 || !strings.Contains(note, "slowest of 5") {
		t.Fatalf("tail of 1..5 = %v (%s), want the slowest", v, note)
	}
}
