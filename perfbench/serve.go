package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nbody"
	"nbody/internal/plan"
)

const (
	serveN = 1024
	// servePool distinct systems are cycled through, so no two requests in
	// a row repeat a body.
	servePool = 64
	// serveClients closed-loop clients, one per CPU of the 2-core host the
	// benchmark was sized on: each waits for its reply before sending again,
	// like a simulation code calling the service.
	serveClients = 2
	// servePairs is how many paired direct/gateway requests each client
	// sends in a traced run.
	servePairs = 150
)

// solveBody is one pooled /v1/solve request with its reference.
type solveBody struct {
	raw, rawPhases []byte // the request, without and with "phases": true
	pos            []nbody.Vec3
	idx            []int
	want           []float64
}

// solveRequest and solveResponse are the parts of the wire protocol the
// benchmark writes and reads.
type solveRequest struct {
	Positions [][3]float64 `json:"positions"`
	Charges   []float64    `json:"charges"`
	Compute   string       `json:"compute"`
	Accuracy  string       `json:"accuracy"`
	Phases    bool         `json:"phases,omitempty"`
}

type solveResponse struct {
	N          int       `json:"n"`
	Phi        []float64 `json:"phi"`
	QueueNS    int64     `json:"queue_ns"`
	SolveNS    int64     `json:"solve_ns"`
	PhaseTable []struct {
		Phase string `json:"phase"`
		NS    int64  `json:"ns"`
	} `json:"phase_table"`
}

// makeBodies builds the seeded pool: the same seed gives byte-identical
// bodies.
func makeBodies(rng *rand.Rand, n, count int) ([]solveBody, error) {
	bodies := make([]solveBody, count)
	for i := range bodies {
		sys := nbody.NewUniformSystem(n, rng.Int63())
		req := solveRequest{Charges: sys.Charges, Compute: "potentials", Accuracy: "fast"}
		for _, p := range sys.Positions {
			req.Positions = append(req.Positions, [3]float64{p.X, p.Y, p.Z})
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		req.Phases = true
		rawPhases, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		idx := sampleTargets(rng, n, checkTargets)
		bodies[i] = solveBody{
			raw: raw, rawPhases: rawPhases, pos: sys.Positions, idx: idx,
			want: refPotentials(sys.Positions, sys.Charges, idx),
		}
	}
	return bodies, nil
}

// proc is one started server process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run takes its servers with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain and exit, kills it if it has not within
// ten seconds, and returns once it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// fleet is one nbodyd replica behind one nbodygw gateway on loopback.
type fleet struct {
	replica, gateway       *proc
	replicaURL, gatewayURL string
}

func (f *fleet) stop() {
	// The gateway goes first so it never probes a replica that is gone.
	f.gateway.stop()
	f.replica.stop()
}

// freeAddrs returns n distinct loopback addresses that were free a moment
// ago.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startFleet starts a replica and a gateway from the built binaries and
// sends first through the gateway; the fleet is set up once that returns
// 200. On error the processes started so far are stopped.
func startFleet(bin, logDir string, hc *http.Client, first []byte) (f *fleet, resp []byte, err error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, nil, err
	}
	f = &fleet{replicaURL: "http://" + addrs[0], gatewayURL: "http://" + addrs[1]}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	f.replica, err = startProc(filepath.Join(bin, "nbodyd"), filepath.Join(logDir, "nbodyd.log"), "-addr", addrs[0], "-quiet")
	if err != nil {
		return f, nil, err
	}
	if err = waitHealthy(hc, f.replicaURL, f.replica); err != nil {
		return f, nil, fmt.Errorf("nbodyd: %w (log in %s)", err, logDir)
	}
	f.gateway, err = startProc(filepath.Join(bin, "nbodygw"), filepath.Join(logDir, "nbodygw.log"), "-addr", addrs[1], "-replicas", f.replicaURL, "-quiet")
	if err != nil {
		return f, nil, err
	}
	if err = waitHealthy(hc, f.gatewayURL, f.gateway); err != nil {
		return f, nil, fmt.Errorf("nbodygw: %w (log in %s)", err, logDir)
	}
	status, resp, err := post(hc, f.gatewayURL, first)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first solve through the gateway: HTTP %d: %.200s", status, resp)
	}
	return f, resp, err
}

// waitHealthy polls base's /v1/healthz until it answers 200.
func waitHealthy(hc *http.Client, base string, p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("exited during start-up")
		default:
		}
		if resp, err := hc.Get(base + "/v1/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("not healthy after 30s")
}

// post sends one /v1/solve and reads the whole reply.
func post(hc *http.Client, base string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON decodes a GET of base+path into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// answer checks one reply: status, shape and potentials against the
// body's reference. It returns the decoded reply and its deviation.
func answer(b *solveBody, status int, raw []byte, err error) (*solveResponse, fieldErr, error) {
	if err != nil {
		return nil, fieldErr{}, err
	}
	if status != http.StatusOK {
		return nil, fieldErr{}, fmt.Errorf("HTTP %d: %.200s", status, raw)
	}
	var sr solveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fieldErr{}, err
	}
	if sr.N != len(b.pos) || len(sr.Phi) != len(b.pos) {
		return nil, fieldErr{}, fmt.Errorf("reply for %d particles, sent %d", len(sr.Phi), len(b.pos))
	}
	return &sr, potErr(sr.Phi, b.idx, b.want), nil
}

// runServe times replica-and-gateway start-ups, then drives the gateway
// with serveClients closed-loop clients. A traced run also sends paired
// requests straight to the replica and through the gateway.
func runServe(e *env) (*result, error) {
	rng := e.rng()
	bodies, err := makeBodies(rng, serveN, servePool)
	if err != nil {
		return nil, err
	}
	order := rng.Perm(servePool)
	logDir := filepath.Join(".bench_build", "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true},
	}
	defer hc.CloseIdleConnections()
	r := newResult(serveN, e.trace)

	// Cold set-up: both processes start, and the first request through the
	// gateway builds the replica's plan. The last fleet stays up.
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.stop()
		}
		hc.CloseIdleConnections()
		b := &bodies[order[0]]
		t0 := time.Now()
		ff, raw, err := startFleet(binDir, logDir, hc, b.raw)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		f = ff
		_, fe, err := answer(b, http.StatusOK, raw, nil)
		r.check(err, fe)
	}
	defer f.stop()

	var (
		mu      sync.Mutex
		series  = map[string][]float64{}
		next    atomic.Int64
		opID    atomic.Int64
		wg      sync.WaitGroup
		start   = time.Now()
		traced  = e.trace
		payload = func(b *solveBody) []byte {
			if traced {
				return b.rawPhases
			}
			return b.raw
		}
	)
	add := func(k string, v float64) { series[k] = append(series[k], v) }
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				more := e.more(start, len(r.lat))
				mu.Unlock()
				if !more {
					return
				}
				b := &bodies[order[int(next.Add(1))%servePool]]
				req := payload(b)
				t0 := time.Now()
				status, raw, err := post(hc, f.gatewayURL, req)
				wall := time.Since(t0)
				t1 := time.Now()
				sr, fe, err := answer(b, status, raw, err)
				op := opID.Add(1)
				mu.Lock()
				r.check(err, fe)
				if err == nil {
					r.lat = append(r.lat, ms(wall))
				}
				var attrs map[string]float64
				if traced && sr != nil {
					attrs = serveAttrs(sr)
					for k, v := range attrs {
						add(k, v)
					}
					add("serve.request_bytes", float64(len(req)))
					add("serve.response_bytes", float64(len(raw)))
				}
				mu.Unlock()
				root := r.spans.add(op, 0, "request", t0, time.Now(), nil)
				r.spans.add(op, root, "POST gateway /v1/solve", t0, t0.Add(wall), attrs)
				r.spans.add(op, root, "decode+check", t1, time.Now(), nil)
			}
		}()
	}
	wg.Wait()
	r.steady = time.Since(start)
	r.rssMB = float64(procPeakRSSKB(f.replica.cmd.Process.Pid)+procPeakRSSKB(f.gateway.cmd.Process.Pid)) / 1024
	if !traced {
		return r, nil
	}
	r.layers["trace.particles_per_s"] = r.particlesPerS()

	// Paired requests: the same body straight to the replica and through
	// the gateway, in alternating order, so the gateway's hop is a
	// difference of medians over identical work.
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < servePairs; i++ {
				b := &bodies[order[(c+serveClients*i)%servePool]]
				legs := [2]string{f.replicaURL, f.gatewayURL}
				if i%2 == 1 {
					legs[0], legs[1] = legs[1], legs[0]
				}
				var t0, t1 [2]time.Time
				for k, base := range legs {
					t0[k] = time.Now()
					status, raw, err := post(hc, base, b.rawPhases)
					t1[k] = time.Now()
					wall := t1[k].Sub(t0[k])
					sr, fe, err := answer(b, status, raw, err)
					mu.Lock()
					r.check(err, fe)
					if err == nil {
						if base == f.replicaURL {
							add("serve.replica_ms", ms(wall))
							add("serve.overhead_ms", ms(wall)-float64(sr.QueueNS+sr.SolveNS)/1e6)
						} else {
							add("gw.request_ms", ms(wall))
						}
					}
					mu.Unlock()
				}
				op := opID.Add(1)
				root := r.spans.add(op, 0, "pair", t0[0], t1[1], nil)
				for k, base := range legs {
					name := "POST gateway /v1/solve"
					if base == f.replicaURL {
						name = "POST replica /v1/solve"
					}
					r.spans.add(op, root, name, t0[k], t1[k], nil)
				}
			}
		}(c)
	}
	wg.Wait()
	mediansInto(r.layers, series)
	r.layers["gw.hop_ms"] = r.layers["gw.request_ms"] - r.layers["serve.replica_ms"]

	// The planner's resolve on the workload's own inputs, timed from here.
	pl := plan.NewPlanner(0)
	var resolve []float64
	for rep := 0; rep < 20; rep++ {
		for i := range bodies {
			t0 := time.Now()
			shape := plan.ShapeKey{N: serveN, Dist: plan.Fingerprint(bodies[i].pos), Accuracy: "fast"}
			pl.Resolve(shape, plan.Request{})
			resolve = append(resolve, float64(time.Since(t0))/1e3)
		}
	}
	r.layers["plan.resolve_us"] = median(resolve)

	var rm struct {
		PlanCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"plan_cache"`
	}
	if err := getJSON(hc, f.replicaURL+"/v1/metrics", &rm); err != nil {
		return nil, err
	}
	if acq := rm.PlanCache.Hits + rm.PlanCache.Misses; acq > 0 {
		r.layers["plan.cache_hit_ratio"] = float64(rm.PlanCache.Hits) / float64(acq)
	}
	var gm struct {
		Gateway struct {
			Failovers int64 `json:"failovers"`
		} `json:"gateway"`
	}
	if err := getJSON(hc, f.gatewayURL+"/v1/metrics", &gm); err != nil {
		return nil, err
	}
	r.layers["gw.failovers"] = float64(gm.Gateway.Failovers)
	return r, nil
}

// serveAttrs turns a reply's own timing into layer values: queue and solve
// time, the phase table, and the solve time the phases leave unattributed.
func serveAttrs(sr *solveResponse) map[string]float64 {
	attrs := map[string]float64{
		"serve.queue_ms": float64(sr.QueueNS) / 1e6,
		"serve.solve_ms": float64(sr.SolveNS) / 1e6,
	}
	var phases int64
	for _, row := range sr.PhaseTable {
		phases += row.NS
		for _, cp := range corePhases {
			if cp.phase.String() == row.Phase {
				attrs[cp.name] = float64(row.NS) / 1e6
			}
		}
	}
	attrs["core.other_ms"] = float64(sr.SolveNS-phases) / 1e6
	return attrs
}
