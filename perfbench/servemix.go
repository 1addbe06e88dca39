package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unsnap"
	"unsnap/internal/build"
	"unsnap/internal/serve"
)

// Serve-mix traffic: a closed loop of serveClients callers, each waiting
// for its job's answer before submitting the next, against a server that
// runs one job at a time, so the second caller's job queues behind the
// first.
const (
	serveClients   = 2
	serveHotMeshes = 3
	serveColdShare = 3  // one job in this many is on a fresh mesh
	serveBlock     = 12 // jobs over which the mix is exact (see genJobs)
	// serveTenantArtifacts is each tenant's cache budget in artifacts of
	// the job shape: small enough that a tenant's fresh meshes evict its
	// own older ones.
	serveTenantArtifacts = 3
)

// jobSpec is one generated service job.
type jobSpec struct {
	Tenant string
	Cold   bool // a mesh fingerprint no earlier job used
	Spec   unsnap.Spec
}

// serveBase is the job shape: a small box the service solves in tens of
// milliseconds.
func serveBase(smoke bool) unsnap.Problem {
	p := unsnap.Problem{NX: 6, NY: 6, NZ: 6, LX: 1, LY: 1, LZ: 1, Order: 1, AnglesPerOctant: 2, Groups: 2}
	if smoke {
		p.NX, p.NY, p.NZ = 3, 3, 3
	}
	return p
}

var serveOptions = unsnap.SpecOptions{Threads: 2, Epsi: 1e-4, MaxInners: 200, MaxOuters: 50}

// genJobs derives the whole job sequence from the seed: the hot meshes
// and, per job, its mesh (hot, or a fresh twist no other job draws), its
// material and source layout, its scattering ratio and its tenant. The
// hot meshes differ in geometry, so each has its own fingerprint; the
// layout and ratio do not enter the fingerprint, so hot jobs are cache
// reads and fresh meshes are cache writes.
//
// Within each block of serveBlock jobs every property takes each of its
// values equally often, in an order the seed shuffles. Every seed thus
// gets the same mix of work, and the seed moves only the order, the
// geometry and the tenants; a seeded mix would move the median job.
func genJobs(seed uint64, n int, smoke bool) (hot []unsnap.Problem, jobs []jobSpec) {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	base := serveBase(smoke)
	hot = make([]unsnap.Problem, serveHotMeshes)
	for k := range hot {
		hot[k] = base
		hot[k].Twist = 1e-3*float64(k) + 1e-4*rng.Float64()
	}
	ratios := []float64{0, 0.3, 0.6}
	// shuffled returns serveBlock values cycling through 0..k-1, shuffled.
	shuffled := func(k int) []int {
		v := make([]int, serveBlock)
		for i := range v {
			v[i] = i % k
		}
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	jobs = make([]jobSpec, 0, n)
	for len(jobs) < n {
		cold, mesh, ratio := shuffled(serveColdShare), shuffled(len(hot)), shuffled(len(ratios))
		mat, src, tenant := shuffled(2), shuffled(2), shuffled(2)
		for i := 0; i < serveBlock && len(jobs) < n; i++ {
			p := hot[mesh[i]]
			if cold[i] == 0 {
				p = base
				p.Twist = 4e-3 + 4e-3*rng.Float64()
			}
			p.MatOpt, p.SrcOpt, p.ScatRatio = mat[i], src[i], ratios[ratio[i]]
			jobs = append(jobs, jobSpec{
				Tenant: fmt.Sprintf("t%d", tenant[i]),
				Cold:   cold[i] == 0,
				Spec:   unsnap.Spec{Problem: p, Options: serveOptions},
			})
		}
	}
	return hot, jobs
}

// service is an in-process serve.Server on a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startService starts the server and builds the hot meshes into its
// cache (charged to a tenant with no budget, so only the job tenants'
// own fresh meshes are ever evicted).
func startService(tenantBytes int64, hot []unsnap.Problem) (*service, error) {
	srv := serve.New(serve.Config{MaxConcurrent: 1, QueueDepth: 16, TenantBytes: tenantBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	sv := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	for _, p := range hot {
		if _, err := unsnap.Build(p, unsnap.Options{Cache: srv.Cache(), CacheTenant: "hot"}); err != nil {
			return nil, errors.Join(err, sv.stop())
		}
	}
	return sv, nil
}

// stop closes the listener, waits for open streams, drains the job
// queue and waits for the serving goroutine.
func (sv *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	err = errors.Join(err, sv.srv.Shutdown(ctx))
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		Inners    int       `json:"inners"`
		Converged bool      `json:"converged"`
		Flux      []float64 `json:"flux"`
	} `json:"result"`
}

// jobRecord is what a client observed of one job.
type jobRecord struct {
	idx      int
	status   int     // POST status
	submitMS float64 // POST round trip
	latency  float64 // POST sent to SSE "done" read, seconds
	doneAt   time.Time
	view     jobView
	err      error
}

type client struct {
	hc  *http.Client
	url string
	tr  *tracer // nil when untraced
}

// newClient returns a client that uses at most serveClients connections.
func newClient(url string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	return &client{hc: &http.Client{Transport: t}, url: url, tr: tr}
}

// do submits one job, follows its event stream to "done" and fetches its
// result.
func (c *client) do(idx int, j jobSpec) (rec jobRecord) {
	rec.idx = idx
	run, root := 0, -1
	if c.tr != nil {
		run = c.tr.newRun()
		root = c.tr.begin(layerServe, "serve.job", run, -1)
		defer c.tr.end(root)
	}
	span := func(name string) func() {
		if c.tr == nil {
			return func() {}
		}
		id := c.tr.begin(layerServe, name, run, root)
		return func() { c.tr.end(id) }
	}

	body, err := json.Marshal(struct {
		Tenant string `json:"tenant"`
		unsnap.Spec
	}{j.Tenant, j.Spec})
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	done := span("serve.POST /v1/jobs")
	resp, err := c.hc.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		done()
		rec.err = err
		return rec
	}
	var sub struct {
		ID string `json:"id"`
	}
	rec.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	done()
	rec.submitMS = ms(time.Since(t0))
	if rec.status != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("submit: status %d: %v", rec.status, err)
		return rec
	}

	done = span("serve.GET /v1/jobs/{id}/events")
	rec.err = c.awaitDone(sub.ID)
	rec.doneAt = time.Now()
	done()
	rec.latency = rec.doneAt.Sub(t0).Seconds()
	if rec.err != nil {
		return rec
	}

	done = span("serve.GET /v1/jobs/{id}")
	defer done()
	resp, err = c.hc.Get(c.url + "/v1/jobs/" + sub.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	rec.err = json.NewDecoder(resp.Body).Decode(&rec.view)
	return rec
}

// awaitDone reads the job's server-sent events until the "done" frame.
func (c *client) awaitDone(id string) error {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "event: done" {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done event")
}

// serveMix is the service workload.
type serveMix struct{}

// loopResult is one measured closed-loop phase against a started
// service.
type loopResult struct {
	recs    []jobRecord
	elapsed time.Duration
	stats   build.CacheStats // cache counter deltas over the phase
	builds  int64
}

// measure runs the closed loop for the configured duration.
func (serveMix) measure(cfg runConfig, sv *service, jobs []jobSpec, tr *tracer) loopResult {
	cl := newClient(sv.url, tr)
	defer cl.hc.CloseIdleConnections()
	st0, b0 := sv.srv.Cache().Stats(), build.Builds()
	var next atomic.Int64
	recs := make([][]jobRecord, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.seconds {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				recs[c] = append(recs[c], cl.do(i, jobs[i]))
			}
		}()
	}
	wg.Wait()
	s := loopResult{elapsed: time.Since(start)}
	for _, r := range recs {
		s.recs = append(s.recs, r...)
	}
	st1 := sv.srv.Cache().Stats()
	s.stats = build.CacheStats{Hits: st1.Hits - st0.Hits, Misses: st1.Misses - st0.Misses, Evictions: st1.Evictions - st0.Evictions}
	s.builds = build.Builds() - b0
	return s
}

// setup generates the jobs and times cfg.setups cold service starts,
// keeping the last service running.
func (serveMix) setup(cfg runConfig) ([]jobSpec, *service, []float64, error) {
	hot, jobs := genJobs(cfg.seed, 64+int(40*cfg.seconds.Seconds()), cfg.smoke)
	art, err := unsnap.Build(hot[0], unsnap.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	budget := serveTenantArtifacts * art.SizeBytes()
	var sv *service
	var setups []float64
	for i := range cfg.setups {
		runtime.GC()
		t0 := time.Now()
		sv, err = startService(budget, hot)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := sv.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return jobs, sv, setups, nil
}

// check verifies every record against a direct NewSolver run of the same
// spec (computed once per distinct spec, outside the timed region) and
// returns the records that passed.
func (serveMix) check(cfg runConfig, jobs []jobSpec, recs []jobRecord, out *outcome) []jobRecord {
	refs := map[string][]float64{}
	var good []jobRecord
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.fail(cfg, "job %d: %v", r.idx, r.err)
			continue
		}
		v := r.view
		if v.State != "done" || v.Result == nil || v.Started == nil || v.Finished == nil {
			out.fail(cfg, "job %d: state %q: %s", r.idx, v.State, v.Error)
			continue
		}
		if !v.Result.Converged {
			out.fail(cfg, "job %d: not converged after %d inners", r.idx, v.Result.Inners)
			continue
		}
		spec := jobs[r.idx].Spec
		key, _ := json.Marshal(spec)
		ref, ok := refs[string(key)]
		if !ok {
			p, o, err := spec.Resolve()
			if err == nil {
				ref, err = solveOnce(p, o)
			}
			if err != nil {
				out.fail(cfg, "job %d: reference: %v", r.idx, err)
				continue
			}
			refs[string(key)] = ref
		}
		if d := maxRelDiff(v.Result.Flux, ref); !(d <= 1e-12) {
			out.fail(cfg, "job %d: flux differs from a direct solve by %.3g", r.idx, d)
			continue
		}
		good = append(good, r)
	}
	return good
}

func (w serveMix) run(cfg runConfig) (*outcome, error) {
	jobs, sv, setups, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The service runs jobs back to back, so the heap high-water mark is
	// taken per second of the timed phase and its median reported: when
	// the collector happened to run in one window cannot move it.
	heap := startHeapSampler()
	stop, peaks := make(chan struct{}), make(chan []float64)
	go func() {
		var p []float64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p = append(p, heap.Peak())
				heap.Reset()
			case <-stop:
				peaks <- append(p, heap.Stop())
				return
			}
		}
	}()
	s := w.measure(cfg, sv, jobs, nil)
	close(stop)
	heapMB := <-peaks
	if err := sv.stop(); err != nil {
		return nil, err
	}
	out := &outcome{}
	good := w.check(cfg, jobs, s.recs, out)
	var lat, runs []float64
	for _, r := range good {
		lat = append(lat, r.latency)
		runs = append(runs, r.view.Finished.Sub(*r.view.Started).Seconds())
	}
	fmt.Fprintf(cfg.log, "serve-mix: %d jobs in %.2f s, cache hits %d misses %d evictions %d\n",
		len(s.recs), s.elapsed.Seconds(), s.stats.Hits, s.stats.Misses, s.stats.Evictions)
	out.metrics = map[string]float64{
		"setup_s":      median(setups),
		"solve_s":      median(runs),
		"job_p50_s":    median(lat),
		"job_p90_s":    quantile(lat, 0.9),
		"jobs_per_s":   float64(len(good)) / s.elapsed.Seconds(),
		"peak_heap_mb": median(heapMB),
	}
	return out, nil
}

func (w serveMix) trace(cfg runConfig, tr *tracer) (*outcome, error) {
	jobs, sv, _, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s := w.measure(cfg, sv, jobs, tr)
	if err := sv.stop(); err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	good := w.check(cfg, jobs, s.recs, out)
	m := out.metrics

	// The solves inside the server are not instrumented, so the core
	// layers are measured on the first hot job's spec, driven directly.
	var rep jobSpec
	for _, j := range jobs {
		if !j.Cold {
			rep = j
			break
		}
	}
	p, o, err := rep.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	ts, err := traceSolver(tr, p, o, m)
	if err != nil {
		return nil, err
	}
	ref, err := solveOnce(p, o)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if d := maxRelDiff(ts.flux, ref); !(d <= 1e-12) || !ts.res.Converged {
		out.fail(cfg, "traced representative solve: converged %v, flux differs by %.3g", ts.res.Converged, d)
	}

	serveLayer(s.recs, good, m)
	m["build.hit_ratio"] = float64(s.stats.Hits) / float64(s.stats.Hits+s.stats.Misses)
	m["build.builds"] = float64(s.builds)
	m["build.evictions"] = float64(s.stats.Evictions)
	return out, nil
}

// serveLayer fills the serve-layer metrics: rejections among all records,
// and the medians of the client- and server-side intervals of the jobs
// that passed their checks.
func serveLayer(recs, good []jobRecord, m map[string]float64) {
	rejected := 0
	for _, r := range recs {
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejected++
		}
	}
	var submit, notify, wait, runMS []float64
	for _, r := range good {
		v := r.view
		submit = append(submit, r.submitMS)
		notify = append(notify, ms(r.doneAt.Sub(*v.Finished)))
		wait = append(wait, ms(v.Started.Sub(v.Submitted)))
		runMS = append(runMS, ms(v.Finished.Sub(*v.Started)))
	}
	m["serve.submit_ms"] = median(submit)
	m["serve.notify_ms"] = median(notify)
	m["serve.queue_wait_ms"] = median(wait)
	m["serve.run_ms"] = median(runMS)
	m["serve.rejected"] = float64(rejected)
}
