package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/qasm"
	"epoc/internal/serve"
	"epoc/internal/store"
)

// serve_warm drives an in-process compile daemon over loopback HTTP.
// Set-up populates a persistent store through a first server, shuts it
// down (flushing the store) and starts a second server from a copy of
// that store. The timed part is a closed loop of one client, which
// sends its next request as soon as the previous one returns. One
// client keeps one compile busy at a time and leaves the second core
// to the runtime and the HTTP path.
// Every pass goes to a server just started from a fresh copy of the
// populated store, so every pass starts from the same state: the
// shared caches and the store never carry one pass's fresh circuits
// into the next.

// warmCircuits are compiled once in full mode during set-up and then
// repeated by name in the timed part.
var warmCircuits = []string{"simon", "bb84", "bv", "decod24", "qaoa"}

const (
	serveWorkers  = 2   // the server's compile workers
	passRequests  = 200 // requests per pass
	freshRequests = 40  // of which estimate-mode fresh circuits
	freshDepth    = 24
	servePassS    = 2.5 // nominal pass time on the reference machine
)

// expected is what a warm repeat must report: the set-up compile's
// schedule latency and fidelity.
type expected struct{ latency, fidelity float64 }

// daemon is one running server with its HTTP front end.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

type serveWarm struct {
	seed   int64
	work   string // parent of every store directory
	client *http.Client

	populated string  // the store the set-up's first server filled
	dir       string  // the running server's copy of it
	d         *daemon // the running server
	used      bool    // d has served a pass
	dirs      int     // store directories made so far
	expect    map[string]expected
	bodies    [][][]byte // each pass's requests
	names     [][]string // and what each one carries
}

func newServeWarm(seed int64, work string) *serveWarm {
	return &serveWarm{
		seed:   seed,
		work:   work,
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
}

func (w *serveWarm) setupReps() int { return 3 }

func (w *serveWarm) passSeconds() float64 { return servePassS }

// newDir names a new store directory under the work directory.
func (w *serveWarm) newDir(kind string) string {
	w.dirs++
	return filepath.Join(w.work, fmt.Sprintf("%s-%d", kind, w.dirs))
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: serveWorkers, StorePath: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop drains the compile server (which flushes and closes its store),
// then closes the HTTP front end and waits for it to exit.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-d.done
	return err
}

func (w *serveWarm) close() {
	if w.d != nil {
		_ = w.d.stop(context.Background())
		w.d = nil
		_ = os.RemoveAll(w.dir)
	}
	w.client.CloseIdleConnections()
}

// restart stops the running server, if any, and starts a new one from
// a fresh copy of the populated store.
func (w *serveWarm) restart(ctx context.Context, sp *spans, parent int) error {
	if w.d != nil {
		s := sp.start(parent, "serve.Shutdown")
		err := w.d.stop(ctx)
		sp.end(s)
		w.d = nil
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}
	w.dir, w.used = w.newDir("serve"), false
	if err := copyTree(w.populated, w.dir); err != nil {
		return err
	}
	s := sp.start(parent, "serve.New")
	d, err := startDaemon(w.dir)
	sp.end(s)
	if err != nil {
		return err
	}
	w.d = d
	return nil
}

// copyTree copies the regular files under src to the same paths under
// dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// setup builds the requests of passes 0..n-1, populates a new store
// through one server, and leaves a second server, started from a copy
// of that store, running for the timed part.
func (w *serveWarm) setup(ctx context.Context, n int, tc *traceCtx) error {
	w.close()
	if w.populated != "" {
		if err := os.RemoveAll(w.populated); err != nil {
			return err
		}
	}
	w.bodies, w.names = make([][][]byte, n), make([][]string, n)
	for p := range w.bodies {
		var err error
		if w.bodies[p], w.names[p], err = passBodies(w.seed, p); err != nil {
			return err
		}
	}
	w.populated = w.newDir("store")
	sp := tc.spans()
	root := sp.start(0, "setup")
	defer sp.end(root)

	s := sp.start(root, "serve.New")
	first, err := startDaemon(w.populated)
	sp.end(s)
	if err != nil {
		return err
	}
	// Populate one circuit at a time, so every run stores the same
	// pulse for each library key; each compile may use both cores.
	w.expect = map[string]expected{}
	var failures []string
	for _, name := range warmCircuits {
		body := mustJSON(serve.CompileRequest{Circuit: name, Options: serve.RequestOptions{Workers: serveWorkers}})
		s := sp.start(root, "http.request")
		resp, err := w.post(ctx, first.url, body).decode()
		sp.end(s)
		if err == nil && resp.Degraded {
			err = errors.New("degraded")
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("populate %s: %v", name, err))
			continue
		}
		w.expect[name] = expected{resp.Manifest.Metrics["latency_ns"], resp.Manifest.Metrics["fidelity"]}
	}
	stats1, err := w.stats(ctx, first.url)
	if err == nil && len(failures) > 0 {
		err = errors.New(strings.Join(failures, "; "))
	}
	s = sp.start(root, "serve.Shutdown")
	t0 := time.Now()
	if serr := first.stop(ctx); err == nil {
		err = serr
	}
	flushS := time.Since(t0).Seconds()
	sp.end(s)
	if err != nil {
		return err
	}

	if err := w.restart(ctx, sp, root); err != nil {
		return err
	}
	stats2, err := w.stats(ctx, w.d.url)
	if err != nil {
		return err
	}
	if stats2.Store == nil || stats2.Store.PulseRecords == 0 {
		return errors.New("restarted server loaded no pulse records from the store")
	}
	if tc != nil {
		return w.traceStore(tc, root, stats1, stats2, flushS)
	}
	return nil
}

// traceStore fills the store layer's figures for a traced run: the
// populating server's flush count and shutdown time, the store's size
// on disk, the restarted server's record count, and a direct open and
// close of the populated store.
func (w *serveWarm) traceStore(tc *traceCtx, root int, before, after *serve.StatsResponse, flushS float64) error {
	st := &tc.store
	st.flushS = flushS
	if before.Store != nil {
		st.flushed = before.Store.Flushed
	}
	st.loaded = after.Store.PulseRecords + after.Store.SynthRecords
	err := filepath.WalkDir(w.populated, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			st.bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	sp := tc.spans()
	s := sp.start(root, "store.Open")
	opened, err := store.Open(w.populated, after.Store.Namespace)
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.start(root, "store.Close")
	err = opened.Close()
	sp.end(s)
	return err
}

// stats reads GET /v1/stats.
func (w *serveWarm) stats(ctx context.Context, url string) (*serve.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &out, nil
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
	ms     float64 // wall time, send to last byte
	cpuMS  float64 // process CPU time over the exchange
}

func (r reply) decode() (*serve.CompileResponse, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if resp.Status != "done" || resp.Manifest == nil {
		return nil, fmt.Errorf("job status %q", resp.Status)
	}
	return &resp, nil
}

// loop sends bodies to POST /v1/compile from one closed-loop client,
// each request as soon as the previous one has returned. With one
// request in flight, the process's CPU time over a request is that
// request's cost: client, HTTP, server and compile.
func (w *serveWarm) loop(ctx context.Context, bodies [][]byte, parent int, tc *traceCtx) []reply {
	replies := make([]reply, len(bodies))
	sp := tc.spans()
	cs := sp.startLane(parent, "client", 1)
	defer sp.end(cs)
	for i, body := range bodies {
		s := sp.start(cs, "http.request")
		c0 := cpuSeconds()
		replies[i] = w.post(ctx, w.d.url, body)
		replies[i].cpuMS = (cpuSeconds() - c0) * 1000
		sp.end(s)
	}
	return replies
}

// post sends one compile request and reads the whole reply; the time
// is the client's view, from send to last byte.
func (w *serveWarm) post(ctx context.Context, url string, body []byte) reply {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
}

// passBodies builds pass p's request sequence: warm repeats cycling
// through warmCircuits, with every fifth request an estimate-mode
// request for a random circuit (4–6 qubits). The random circuits are
// drawn from the seed and p, so every pass brings new ones; their
// positions are the same for every seed, so the seed picks the
// circuits but not where they fall in the pass.
func passBodies(seed int64, p int) ([][]byte, []string, error) {
	bodies := make([][]byte, passRequests)
	names := make([]string, passRequests)
	every := passRequests / freshRequests
	rng := passRNG(seed, p)
	warm, nfresh := 0, 0
	for i := range bodies {
		if i%every != every-1 {
			names[i] = warmCircuits[warm%len(warmCircuits)]
			bodies[i] = mustJSON(serve.CompileRequest{Circuit: names[i]})
			warm++
			continue
		}
		n := 4 + nfresh%3
		src, err := qasm.Write(benchcirc.RandomCircuit(n, freshDepth, rng.Int63()))
		if err != nil {
			return nil, nil, err
		}
		names[i] = fmt.Sprintf("fresh%d", n)
		bodies[i] = mustJSON(serve.CompileRequest{QASM: src, Options: serve.RequestOptions{Mode: "estimate"}})
		nfresh++
	}
	return bodies, names, nil
}

// pass sends the pass's requests; from the second pass on it first
// restarts the server from the populated store, outside the timed
// window.
func (w *serveWarm) pass(ctx context.Context, p int, tc *traceCtx) (passResult, error) {
	sp := tc.spans()
	if w.used {
		s := sp.start(0, "restart")
		err := w.restart(ctx, sp, s)
		sp.end(s)
		if err != nil {
			return passResult{}, err
		}
	}
	w.used = true
	bodies, names := w.bodies[p], w.names[p]
	root := sp.start(0, fmt.Sprintf("pass %d", p))
	tc.startWindow()
	start, cpu0 := time.Now(), cpuSeconds()
	replies := w.loop(ctx, bodies, root, tc)
	out := passResult{Wall: time.Since(start), CPU: cpuSeconds() - cpu0, Attempted: len(bodies), FidMin: 1}
	tc.stopWindow()
	sp.end(root)

	for i, r := range replies {
		out.OpsMS = append(out.OpsMS, r.cpuMS)
		resp, err := r.decode()
		if err == nil {
			err = w.checkReply(names[i], resp)
		}
		if err != nil {
			out.Failures = append(out.Failures, fmt.Sprintf("pass %d request %d (%s): %v", p, i, names[i], err))
			tc.addRejected(r.status)
			continue
		}
		m := resp.Manifest.Metrics
		out.LatencyNS += m["latency_ns"]
		out.FidMin = math.Min(out.FidMin, m["fidelity"])
		tc.addServe(resp, r.ms)
	}
	return out, nil
}

// checkReply requires a non-degraded result and, for a warm repeat,
// no pulse-library miss and the set-up compile's latency and fidelity.
func (w *serveWarm) checkReply(name string, resp *serve.CompileResponse) error {
	if resp.Degraded {
		return fmt.Errorf("degraded: %v", resp.DegradeReasons)
	}
	want, warm := w.expect[name]
	if !warm {
		return nil
	}
	if resp.Cache == nil || resp.Cache.LibraryMisses != 0 {
		return fmt.Errorf("warm repeat missed the pulse library: %+v", resp.Cache)
	}
	m := resp.Manifest.Metrics
	if m["latency_ns"] != want.latency || m["fidelity"] != want.fidelity {
		return fmt.Errorf("warm repeat latency %v fidelity %v, set-up compile gave %v and %v",
			m["latency_ns"], m["fidelity"], want.latency, want.fidelity)
	}
	return nil
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}
