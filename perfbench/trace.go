package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Layer names: the repository's modules as a solve crosses them.
const (
	layerServe = "serve" // internal/serve: HTTP, queue, SSE
	layerBuild = "build" // internal/build with mesh and sweep set-up
	layerCore  = "core"  // internal/core: engine, kernel, iteration
	layerAccel = "accel" // internal/accel DSA and the la CG it runs
	layerComm  = "comm"  // internal/comm halo protocols
)

var layers = []string{layerServe, layerBuild, layerCore, layerAccel, layerComm}

// span is one timed call from the benchmark into a layer's public
// function. Parent is the index of the enclosing span (-1 for a root);
// spans of one solve or one service job share a Run id.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Run    int    `json:"run"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Its slice is
// preallocated so recording a span does not allocate, which keeps the
// allocation counts of a traced solve the program's own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// newRun returns a fresh run id.
func (t *tracer) newRun() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span and returns its id.
func (t *tracer) begin(layer, name string, run, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Run: run, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// total sums the durations of the closed spans called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// durations lists the durations of the closed spans called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children of one span may overlap, so their
// intervals are merged first).
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.End < 0 {
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in ms.
func (t *tracer) layerSelf() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for i, d := range t.selfTimes() {
		out[t.spans[i].Layer] += float64(d) / 1e6
	}
	return out
}

// spanSelf is the self time of span id, in ms.
func (t *tracer) spanSelf(id int) float64 { return float64(t.selfTimes()[id]) / 1e6 }

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Provenance provenance         `json:"provenance"`
	Spans      []span             `json:"spans"`
	SelfMS     []float64          `json:"self_ms"` // per span, same order
	LayerSelf  map[string]float64 `json:"layer_self_ms"`
	Metrics    map[string]float64 `json:"metrics"`
	LayerMap   []layerMetric      `json:"layer_map"`
}

// write stores the spans, their self times, the per-layer totals and the
// per-layer metrics as JSON under dir.
func (t *tracer) write(dir string, prov provenance, metrics map[string]float64) (string, error) {
	self := t.selfTimes()
	selfMS := make([]float64, len(self))
	for i, d := range self {
		selfMS[i] = float64(d) / 1e6
	}
	tf := traceFile{
		Provenance: prov, Spans: t.spans, SelfMS: selfMS,
		LayerSelf: t.layerSelf(), Metrics: metrics, LayerMap: perLayerMetrics,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", prov.Workload, prov.Seed))
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
