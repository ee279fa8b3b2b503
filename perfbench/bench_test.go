package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// declared is BENCHMARK.json as the repository root holds it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q: want letters, digits, _, . and - only", kind, name)
		}
		if seen[kind+name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[kind+name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
	}
}

// TestDeclaredMatchesCode keeps BENCHMARK.json and the code's tables in
// step: same workloads, same metrics, same units and directions.
func TestDeclaredMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if strings.Join(d.Command, " ") != "bash perfbench/run.sh" || len(d.Paths) != 1 || d.Paths[0] != "perfbench" {
		t.Errorf("command %q, paths %q: want run.sh in perfbench", d.Command, d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", d.RunSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, code has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []metricDef, name, unit, better string, i int) {
		if i >= len(got) {
			t.Errorf("%s metric %s declared but not in code", kind, name)
			return
		}
		if want := (metricDef{name, unit, better}); got[i] != want {
			t.Errorf("%s metric %d: declared %+v, code %+v", kind, i, want, got[i])
		}
	}
	for i, m := range d.EndToEnd {
		same("end_to_end", endToEnd, m.Name, m.Unit, m.Better, i)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range d.PerLayer {
		same("per_layer", perLayer, m.Name, m.Unit, m.Better, i)
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Errorf("declared %d+%d metrics, code has %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
}

// fakeResult is a result with enough samples for every workload's tail.
func fakeResult() *result {
	r := newResult(100, false)
	for i := 0; i < 2000; i++ {
		r.lat = append(r.lat, float64(1+i%7))
		r.check(nil, fieldErr{sq: 1e-8, n: 1, scale: 1})
	}
	r.setups = []float64{0.3, 0.2, 0.4}
	r.steady = 3 * time.Second
	r.rssMB = 12
	r.layers["core.near_field_ms"] = 2
	return r
}

// lastLines runs report and returns its detail line and final line,
// decoded.
func lastLines(t *testing.T, vals []value) (detailJSON, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, &workloads[0], fakeResult(), vals); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var detail detailJSON
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	return detail, out
}

func TestEveryDeclaredMetricEmitted(t *testing.T) {
	r := fakeResult()
	e2e, err := r.endToEndValues(0.99)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := r.perLayerValues()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		vals []value
	}{{endToEnd, e2e}, {perLayer, layers}} {
		detail, out := lastLines(t, c.vals)
		if detail.Host.NProc < 1 || detail.Host.Go == "" || detail.Host.SIMD == "" || detail.Host.CPU == "" {
			t.Errorf("host fingerprint incomplete: %+v", detail.Host)
		}
		if len(detail.Metrics) != len(c.defs) {
			t.Fatalf("detail line has %d metrics, %d declared", len(detail.Metrics), len(c.defs))
		}
		keys := []string{}
		for k := range out {
			keys = append(keys, k)
		}
		if len(out) != 4 || out["correct"] != true || out["attempted"] == nil || out["failed"] == nil {
			t.Fatalf("final line keys %v, want correct, attempted, failed, metrics", keys)
		}
		ms := out["metrics"].(map[string]any)
		if len(ms) != len(c.defs) {
			t.Errorf("%d metrics emitted, %d declared", len(ms), len(c.defs))
		}
		for i, d := range c.defs {
			m, ok := ms[d.name].(map[string]any)
			if !ok || m["unit"] != d.unit {
				t.Errorf("metric %s: emitted %v, want unit %s", d.name, ms[d.name], d.unit)
			}
			if l := detail.Metrics[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("detail line: %+v, want %+v", l, d)
			}
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 19)
	if _, _, err := tail(xs, 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) reported, want an error")
	}
	if _, beyond, err := tail(append(xs, 0), 0.5); err != nil || beyond != 10 {
		t.Errorf("p50 of 20 samples: beyond %d, err %v", beyond, err)
	}
	r := fakeResult()
	r.lat = r.lat[:500]
	if _, err := r.endToEndValues(0.99); err == nil {
		t.Error("p99 of 500 samples (5 beyond) reported, want an error")
	}
	for _, w := range workloads {
		n := samplesFor(w.tail)
		if _, _, err := tail(make([]float64, n), w.tail); err != nil {
			t.Errorf("%s: samplesFor gives %d, still short: %v", w.name, n, err)
		}
		if _, _, err := tail(make([]float64, n-1), w.tail); err == nil {
			t.Errorf("%s: samplesFor gives %d, but %d already suffice", w.name, n, n-1)
		}
	}
}

// checkTraced requires non-negative layer values and, per traced call,
// phases that fit inside the call's wall time.
func checkTraced(t *testing.T, r *result, call, rest string) {
	t.Helper()
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
	}
	vals, err := r.perLayerValues()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v.v < 0 {
			t.Errorf("%s = %v < 0", v.def.name, v.v)
		}
	}
	calls := 0
	for _, s := range r.spans.spans {
		if s.Name != call {
			continue
		}
		calls++
		var sum float64
		for _, cp := range corePhases {
			sum += s.Attrs[cp.name]
		}
		if wall := s.Attrs["wall_ms"]; sum > wall || s.Attrs[rest] < 0 || wall > float64(s.End-s.Start)/1e6+1e-6 {
			t.Errorf("%s span %d: phases %.3f ms, wall %.3f ms, span %.3f ms", call, s.ID, sum, wall, float64(s.End-s.Start)/1e6)
		}
	}
	if calls == 0 {
		t.Errorf("no %s spans", call)
	}
}

func TestTracedSolveLayers(t *testing.T) {
	e := &env{seed: 3, seconds: time.Millisecond, trace: true, tail: 0.5}
	r, err := solveLoop(e, 4096)
	if err != nil {
		t.Fatal(err)
	}
	checkTraced(t, r, "nbody.Anderson.PotentialsInto", "core.other_ms")
	if r.layers["core.near_field_ms"] <= 0 || r.layers["kernels.near_pairs_per_solve"] <= 0 {
		t.Errorf("near field not measured: %v", r.layers)
	}
}

func TestTracedSimulateLayers(t *testing.T) {
	e := &env{seed: 3, seconds: time.Millisecond, trace: true, tail: 0.5}
	r, err := simulateLoop(e, 2048)
	if err != nil {
		t.Fatal(err)
	}
	checkTraced(t, r, "nbody.Simulation.Step", "nbody.integrate_ms")
}

// TestSeededInputs: the seed alone decides the inputs, byte for byte.
func TestSeededInputs(t *testing.T) {
	pool := func(seed int64) [][]byte {
		e := &env{seed: seed}
		bodies, err := makeBodies(e.rng(), 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, b := range bodies {
			idx, _ := json.Marshal(b.idx)
			out = append(out, b.raw, b.rawPhases, idx)
		}
		return out
	}
	a, b, c := pool(5), pool(5), pool(6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 5 gave different input %d on a second build", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("seeds 5 and 6 gave the same input %d", i)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solve-64k", "--seconds", "0"},
		{"--workload", "solve-64k", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
