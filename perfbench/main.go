// Command perfbench is the repository's benchmark: it runs one named
// workload through the library or the HTTP service for a fixed time,
// checks every answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON line.
//
//	go -C perfbench run . --workload sweep-fig3 --seed 1 --seconds 10 --trace 0
//
// run.sh builds it from the checkout's sources and runs it with the same
// flags. See README.md for the workloads and the metric ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// workload is one named set of inputs.
type workload interface {
	run(cfg runConfig) (*outcome, error)
	trace(cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = map[string]workload{
	"sweep-fig3":  sweepFig3,
	"scatter-dsa": scatterDSA,
	"serve-mix":   serveMix{},
	"halo-cyclic": haloCyclic,
}

// runConfig is what every workload is run with.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	smoke   bool
	setups  int       // cold set-ups timed per run; setup_s is their median
	log     io.Writer // diagnostics (standard error)
}

// outcome is one run's operation counts and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail counts a failed operation and says why on the log.
func (o *outcome) fail(cfg runConfig, format string, args ...any) {
	o.failed++
	fmt.Fprintf(cfg.log, "FAIL: "+format+"\n", args...)
}

// provenance stamps every output.
type provenance struct {
	Commit     string  `json:"commit"`
	Source     string  `json:"source_digest"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints the result as the
// last line of stdout. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-fig3, scatter-dsa, serve-mix or halo-cyclic")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny problem sizes, for the benchmark's own tests")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sweep-fig3|scatter-dsa|serve-mix|halo-cyclic), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, setups: 11, log: stderr}
	if *smoke {
		cfg.setups = 2
	}
	prov := provenance{
		Commit: envOr("PERFBENCH_COMMIT", "unknown"), Source: envOr("PERFBENCH_SOURCE", "unknown"),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Smoke: *smoke,
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	var out *outcome
	var err error
	defs := make([]metricDef, 0, len(perLayerMetrics))
	if *traceFlag == 1 {
		tr := newTracer()
		out, err = w.trace(cfg, tr)
		if err == nil {
			var path string
			path, err = tr.write(*traceDir, prov, out.metrics)
			fmt.Fprintf(stdout, "trace %s\n", path)
			self := tr.layerSelf()
			for _, l := range layers {
				fmt.Fprintf(stdout, "layer %-5s self %.3f ms\n", l, self[l])
			}
		}
		for _, d := range perLayerMetrics {
			defs = append(defs, d.metricDef)
		}
	} else {
		out, err = w.run(cfg)
		defs = endToEndMetrics
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && *traceFlag == 1 {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", *name, d.Name)
			out.failed++
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Failed = out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
