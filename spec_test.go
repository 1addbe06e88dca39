package unsnap

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSpecResolveRoundTrip pins the wire format: a spec serialises to the
// documented JSON names, survives a JSON round trip, and resolves to the
// Options the same knobs would configure directly.
func TestSpecResolveRoundTrip(t *testing.T) {
	p := DefaultProblem()
	p.TwistPeriods = 2
	p.Twist = 0.35
	want := Options{
		Scheme: Engine, Threads: 2, Solver: DGESV,
		Accelerate: AccelDSA,
		Epsi:       1e-5, MaxInners: 7, MaxOuters: 3,
		AllowCycles: true, CycleOrder: OrderFeedbackArc,
		Deadline:     30 * time.Second,
		HealthChecks: true,
	}
	sp := SpecOf(p, want)
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("round-tripped spec rejected: %v\n%s", err, data)
	}
	gotP, gotO, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if gotP != p {
		t.Fatalf("problem round trip: got %+v, want %+v", gotP, p)
	}
	if gotO.Scheme != want.Scheme || gotO.Solver != want.Solver ||
		gotO.Accelerate != want.Accelerate || gotO.CycleOrder != want.CycleOrder ||
		gotO.Epsi != want.Epsi || gotO.MaxInners != want.MaxInners ||
		gotO.MaxOuters != want.MaxOuters || gotO.AllowCycles != want.AllowCycles ||
		gotO.Deadline != want.Deadline || gotO.HealthChecks != want.HealthChecks {
		t.Fatalf("options round trip: got %+v, want %+v", gotO, want)
	}
}

// TestSpecMinimal pins that a problem-only spec resolves to the library
// defaults.
func TestSpecMinimal(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"problem":{"nx":4,"ny":4,"nz":4,
		"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, o, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.Scheme != Engine || o.Accelerate != AccelNone {
		t.Fatalf("minimal spec did not resolve to defaults: %+v", o)
	}
}

// TestSpecRejections pins the validation surface: unknown knob
// spellings, unknown JSON fields and dimensional nonsense all fail with
// a structured error instead of resolving to something unintended.
func TestSpecRejections(t *testing.T) {
	valid := `"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,
		"order":1,"angles_per_octant":2,"groups":2}`
	cases := map[string]string{
		"unknown field":      `{` + valid + `, "optoins":{}}`,
		"retired kernel":     `{` + valid + `, "options":{"kernel":"scalar"}}`,
		"retired octants":    `{` + valid + `, "options":{"octants":"fused"}}`,
		"unknown scheme":     `{` + valid + `, "options":{"scheme":"warp"}}`,
		"unknown solver":     `{` + valid + `, "options":{"solver":"MKL"}}`,
		"unknown accel":      `{` + valid + `, "options":{"accelerate":"p-air"}}`,
		"unknown cycle rule": `{` + valid + `, "options":{"cycle_order":"random"}}`,
		"negative deadline":  `{` + valid + `, "options":{"deadline_seconds":-1}}`,
		"huge deadline":      `{` + valid + `, "options":{"deadline_seconds":1e7}}`,
		"zero grid":          `{"problem":{"nx":0,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`,
		"bad scat ratio":     `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2,"scat_ratio":1.5}}`,
		"dsa with reflect":   `{` + valid + `, "options":{"accelerate":"dsa","reflect":[true,false,false]}}`,
		"not json":           `{"problem":`,
	}
	for name, body := range cases {
		if _, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("%s: spec %s was accepted", name, body)
		}
	}
}

// TestSpecSolves pins that a resolved spec actually drives a solve: the
// service-facing path (ParseSpec -> Resolve -> NewSolver -> RunContext)
// produces a converged result with a progress event per inner.
func TestSpecSolves(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"problem":{"nx":4,"ny":4,"nz":4,
		"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},
		"options":{"epsi":1e-4,"max_inners":10,"max_outers":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	p, o, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	o.Progress = func(pr Progress) { events = append(events, pr) }
	s, err := NewSolver(p, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("spec solve did not converge: %+v", res)
	}
	if len(events) != res.Inners {
		t.Fatalf("progress events %d, want one per inner (%d)", len(events), res.Inners)
	}
	last := events[len(events)-1]
	if last.Inners != res.Inners || last.DF != res.FinalDF {
		t.Fatalf("final progress event %+v does not match result (inners %d, df %v)",
			last, res.Inners, res.FinalDF)
	}
}

// FuzzParseSpec drives the wire parser with arbitrary bytes: ParseSpec
// must never panic, and every accepted spec must reach a fixed point
// after one SpecOf(Resolve(.)) round trip through JSON — the canonical
// form a service records is itself accepted and reproduces itself.
func FuzzParseSpec(f *testing.F) {
	valid := `"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,
		"order":1,"angles_per_octant":2,"groups":2}`
	for _, seed := range []string{
		`{` + valid + `}`,
		`{` + valid + `, "options":{"epsi":1e-4,"max_inners":10,"max_outers":4}}`,
		`{` + valid + `, "options":{"scheme":"angle/ELEMENT/group","solver":"DGESV","threads":2}}`,
		`{` + valid + `, "options":{"accelerate":"dsa","deadline_seconds":30,"health_checks":true}}`,
		`{` + valid + `, "options":{"allow_cycles":true,"cycle_order":"feedback-arc"}}`,
		`{` + valid + `, "options":{"reflect":[true,false,true],"time_steps":2,"time_dt":0.1}}`,
		`{` + valid + `, "options":{"deadline_seconds":0.123456789}}`,
		`{` + valid + `, "options":{"deadline_seconds":64.58333745239767}}`,
		`{` + valid + `, "options":{"deadline_seconds":999999.999999999}}`,
		`{` + valid + `, "options":{"kernel":"scalar"}}`,
		`{` + valid + `, "options":{"octants":"fused"}}`,
		`{` + valid + `, "optoins":{}}`,
		`{` + valid + `, "options":{"deadline_seconds":-1}}`,
		`{"problem":{"nx":0,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`,
		`{"problem":`,
	} {
		f.Add([]byte(seed))
	}
	canon := func(t *testing.T, sp Spec) Spec {
		t.Helper()
		p, o, err := sp.Resolve()
		if err != nil {
			t.Fatalf("accepted spec does not resolve: %v", err)
		}
		return SpecOf(p, o)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		first := canon(t, sp)
		wire, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("canonical spec does not marshal: %v", err)
		}
		back, err := ParseSpec(wire)
		if err != nil {
			t.Fatalf("canonical spec rejected: %v\n%s", err, wire)
		}
		if second := canon(t, back); second != first {
			t.Fatalf("round trip is not a fixed point:\n first %+v\nsecond %+v", first, second)
		}
	})
}
