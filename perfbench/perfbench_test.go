package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unsnap"
)

func TestGenJobsIsAFunctionOfTheSeed(t *testing.T) {
	hotA, a := genJobs(7, 300, false)
	hotB, b := genJobs(7, 300, false)
	if !reflect.DeepEqual(hotA, hotB) || !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different job sequences")
	}
	_, c := genJobs(8, 300, false)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same job sequence")
	}

	// Cold jobs are fresh fingerprints (a twist nobody else uses), hot
	// jobs reuse one of the hot meshes, and a third are cold.
	hotTwist := map[float64]bool{}
	for _, p := range hotA {
		hotTwist[p.Twist] = true
	}
	seen := map[float64]bool{}
	cold := 0
	for i, j := range a {
		tw := j.Spec.Problem.Twist
		switch {
		case j.Cold && (hotTwist[tw] || seen[tw]):
			t.Fatalf("job %d is marked cold but reuses twist %v", i, tw)
		case !j.Cold && !hotTwist[tw]:
			t.Fatalf("hot job %d uses twist %v, not a hot mesh", i, tw)
		}
		if j.Cold {
			cold++
			seen[tw] = true
		}
		if j.Tenant != "t0" && j.Tenant != "t1" {
			t.Fatalf("job %d has tenant %q", i, j.Tenant)
		}
		if _, _, err := j.Spec.Resolve(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if cold != 100 {
		t.Fatalf("%d of 300 jobs are cold, want 100", cold)
	}
}

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50}, // overlaps a
		{Name: "c", Parent: 1, Start: 15, End: 20},
		{Name: "open", Parent: 0, Start: 60, End: -1}, // never closed: ignored
	}
	got := tr.selfTimes()
	want := []int64{60, 25, 20, 5, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Fatalf("p90 %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end %v\nprogram     %v", bj.EndToEnd, endToEndMetrics)
	}
	var layer []metricDef
	for _, m := range perLayerMetrics {
		layer = append(layer, m.metricDef)
	}
	if !reflect.DeepEqual(bj.PerLayer, layer) {
		t.Errorf("per_layer %v\nprogram   %v", bj.PerLayer, layer)
	}
}

// TestSmoke runs every workload untraced and traced at tiny sizes and
// checks the output contract: a correct result with every metric.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
					"--smoke", "--trace-dir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if !strings.HasPrefix(lines[0], "provenance ") {
					t.Fatalf("first line %q is not the provenance stamp", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v attempted %d failed %d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				defs := endToEndMetrics
				if trace == "1" {
					defs = nil
					for _, m := range perLayerMetrics {
						defs = append(defs, m.metricDef)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Fatalf("metric %s missing or in the wrong unit: %+v", d.Name, v)
					}
					if trace == "0" && !(v.Value > 0) {
						t.Fatalf("end-to-end metric %s is %v", d.Name, v.Value)
					}
				}
				if trace == "1" {
					files, _ := filepath.Glob(filepath.Join(dir, name+"-seed3.json"))
					if len(files) != 1 {
						t.Fatalf("no trace file written in %s", dir)
					}
					var tf traceFile
					data, _ := os.ReadFile(files[0])
					if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
						t.Fatalf("trace file holds no spans (err %v)", err)
					}
				}
			})
		}
	}
}

// TestFidelityDetectsADivergentLoop checks that the traced loop's
// comparison with Run notices a different stopping point.
func TestFidelityDetectsADivergentLoop(t *testing.T) {
	p, o := scatterDSA.problem(true)
	if err := checkFidelity(p, o); err != nil {
		t.Fatalf("driven loop diverges from Run: %v", err)
	}
	d := drivenResult{Inners: 1, Outers: 1}
	if sameIteration(d, nil, &unsnap.Result{Inners: 2, Outers: 1}, nil) == "" {
		t.Fatal("a loop with a different inner count passed the comparison")
	}
}
