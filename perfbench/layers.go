package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the library or the service sees;
// untraced runs report every one of them on every workload.
//
// On the solve workloads (sweep-fig3, scatter-dsa, halo-cyclic) a job is
// what a caller that solves repeatedly pays for one answer: a solver
// constructed on a warm artifact cache, one Run, Close. solve_s is the
// Run alone. On serve-mix a job is one HTTP submission, timed from the
// POST until the client reads the SSE "done" event, and solve_s is the
// server-side run time (started to finished) of a job.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},       // Problem to ready solver (or server + hot builds) on a cold cache, median of several
	{"solve_s", "s", "lower"},       // median wall time of one Run under the workload's stopping rule
	{"job_p50_s", "s", "lower"},     // median job latency
	{"job_p90_s", "s", "lower"},     // 90th-percentile job latency
	{"jobs_per_s", "1/s", "higher"}, // jobs completed per second of the timed phase
	{"peak_heap_mb", "MB", "lower"}, // heap high-water mark: median over jobs (solve workloads) or over seconds (serve-mix)
}

// layerMetric is one per-layer metric and the end-to-end metric it
// should move, on which workloads: the ledger a change to one layer is
// judged against. Traced runs report every one of them on every
// workload; the comm metrics read zero outside halo-cyclic.
type layerMetric struct {
	metricDef
	Moves string `json:"moves"` // end-to-end metric it should move ("" for none)
	On    string `json:"on"`    // workloads where it should move it
}

var perLayerMetrics = []layerMetric{
	{metricDef{"serve.submit_ms", "ms", "lower"}, "job_p50_s", "serve-mix"},
	{metricDef{"serve.notify_ms", "ms", "lower"}, "job_p50_s", "serve-mix"},
	{metricDef{"serve.queue_wait_ms", "ms", "lower"}, "job_p90_s", "serve-mix"},
	{metricDef{"serve.run_ms", "ms", "lower"}, "jobs_per_s", "serve-mix"},
	{metricDef{"serve.rejected", "count", "lower"}, "failed", "serve-mix"},
	{metricDef{"build.cold_ms", "ms", "lower"}, "setup_s", "all"},
	{metricDef{"build.warm_ms", "ms", "lower"}, "job_p50_s", "serve-mix"},
	{metricDef{"mesh.fingerprint_ms", "ms", "lower"}, "job_p50_s", "serve-mix"},
	{metricDef{"mesh.match_ms", "ms", "lower"}, "setup_s", "all"},
	{metricDef{"build.hit_ratio", "ratio", "higher"}, "jobs_per_s", "serve-mix"},
	{metricDef{"build.builds", "count", "lower"}, "jobs_per_s", "serve-mix"},
	{metricDef{"build.evictions", "count", "lower"}, "job_p90_s", "serve-mix"},
	{metricDef{"build.artifact_mb", "MB", "lower"}, "peak_heap_mb", "all"},
	{metricDef{"build.lagsets_ms", "ms", "lower"}, "setup_s", "halo-cyclic"},
	{metricDef{"sweep.lagged_edges", "count", "lower"}, "solve_s", "halo-cyclic"},
	{metricDef{"core.sweep_ms", "ms", "lower"}, "solve_s", "sweep-fig3"},
	{metricDef{"core.grind_ns", "ns", "lower"}, "solve_s", "sweep-fig3"},
	{metricDef{"core.task_ns", "ns", "lower"}, "solve_s", "scatter-dsa"},
	{metricDef{"core.assemble_share", "ratio", "lower"}, "solve_s", "sweep-fig3"},
	{metricDef{"core.factor_solve_share", "ratio", "lower"}, "solve_s", "sweep-fig3"},
	{metricDef{"core.outer_source_ms", "ms", "lower"}, "solve_s", "sweep-fig3"},
	{metricDef{"core.prepare_ms", "ms", "lower"}, "solve_s", "scatter-dsa"},
	{metricDef{"core.converge_ms", "ms", "lower"}, "solve_s", "scatter-dsa"},
	{metricDef{"core.balance_ms", "ms", "lower"}, "solve_s", "sweep-fig3 scatter-dsa halo-cyclic"},
	{metricDef{"core.allocs_per_inner", "count", "lower"}, "peak_heap_mb", "all"},
	{metricDef{"go.gc_cycles", "count", "lower"}, "solve_s", "all"},
	{metricDef{"core.inners", "count", "lower"}, "solve_s", "scatter-dsa halo-cyclic"},
	{metricDef{"core.unattributed_ms", "ms", "lower"}, "", ""},
	{metricDef{"accel.dsa_ms", "ms", "lower"}, "solve_s", "scatter-dsa"},
	{metricDef{"accel.spectral_radius", "ratio", "lower"}, "solve_s", "scatter-dsa"},
	{metricDef{"comm.extra_inners", "count", "lower"}, "solve_s", "halo-cyclic"},
	{metricDef{"comm.overhead_ratio", "ratio", "lower"}, "solve_s", "halo-cyclic"},
	{metricDef{"comm.kernel_share", "ratio", "higher"}, "solve_s", "halo-cyclic"},
	{metricDef{"comm.attempts", "count", "lower"}, "failed", "halo-cyclic"},
	{metricDef{"trace.overhead_ratio", "ratio", "lower"}, "", ""},
}
