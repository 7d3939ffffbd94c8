package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/serve"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
)

const (
	serveOp    = "k05"
	serveConns = 2 // client connections, for both loops
	// serveRate is the open loop's arrival rate: a quarter to a half of what
	// the two connections sustain, which on a shared machine swings between
	// about 70 and 140 requests a second. At 60 a second the slow periods
	// saturate the server and the queue grows without bound.
	serveRate  = 30.0
	serveSwaps = 3   // hot swaps spread over the open loop
	servePool  = 128 // distinct seeded inputs the requests draw from
	serveTol   = 1e-10
)

// serveInput is one request body and the in-process width-1 replay of the
// same input, which the served reply must match. Coalesced flushes are not
// bit-identical to width 1, hence the tolerance.
type serveInput struct {
	body []byte
	want []float64
}

// runServe: untimed, compress K05 and save it to two store files; timed as
// set-up, the cold start from a mapped store to the first served matvec;
// then a closed loop on two keep-alive connections (the capacity) and an
// open loop of seeded Poisson arrivals over the same two connections, timed
// from each request's due time, while the operator is hot-swapped between
// the two stores.
func runServe(ctx context.Context, r *runner) error {
	prob, err := spdmat.Generate("K05", r.n, matrixSeed)
	if err != nil {
		return err
	}
	prep := r.root.StartSpan("bench:prep")
	defer prep.End()
	h, err := r.compress(ctx, prep, prob.K, r.config())
	if err != nil {
		return err
	}
	if err := compile(ctx, prep, h); err != nil {
		return err
	}
	if err := r.accuracy(ctx, h); err != nil {
		return err
	}
	ex := newExactRows(prob.K)
	n := h.N()
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(r.seed)), n, servePool)
	inputs := make([]serveInput, servePool)
	U := linalg.NewMatrix(n, servePool)
	for j := range inputs {
		u, err := h.MatvecCtx(ctx, column(W, j))
		if err != nil {
			return err
		}
		copy(U.Col(j), u.Col(0))
		inputs[j] = serveInput{body: encode(W.Col(j)), want: U.Col(j)}
	}
	// Replies match these replays to 1e-10, so the served answers miss the
	// exact product by what the replays do.
	r.m["resid"] = ex.relErr(W, U)
	stores := []string{filepath.Join(r.dir, "serve-a.store"), filepath.Join(r.dir, "serve-b.store")}
	for _, path := range stores {
		c := prep.StartSpan("store:SaveTo")
		_, err := h.SaveTo(path)
		c.End()
		if err != nil {
			return err
		}
		defer os.Remove(path)
	}
	if r.rec != nil {
		if err := r.probeLayers(ctx, h); err != nil {
			return err
		}
	}
	prep.End()
	h = nil // serving runs from the stores; let the collector have the operator

	var s *serving
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	err = r.setup(func(sp *telemetry.Span) error {
		if s != nil {
			s.stop()
		}
		var err error
		s, err = startServing(ctx, r, sp, stores[0], inputs[0])
		return err
	})
	if err != nil {
		return err
	}
	for i := 0; i < 2*serveConns; i++ {
		if err := s.post(ctx, inputs[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	loop := r.root.StartSpan("bench:loop")
	defer loop.End()
	closed := s.closedLoop(ctx, loop, inputs, r.seed, r.phase/2)
	open := s.openLoop(ctx, r, loop, inputs, stores, r.phase-r.phase/2)
	r.t.add(closed.t)
	r.t.add(open.t)
	r.setOps(open.lat, 1)
	// The open loop runs at a fixed rate, so the capacity comes from the
	// closed loop instead.
	r.m["rhs_per_s"] = float64(len(closed.lat)) / closed.wall.Seconds()
	r.m["serve.closed_p50_ms"] = median(closed.lat) * 1e3
	r.m["serve.queue_ms_p50"] = median(open.queue) * 1e3
	r.m["serve.gen_late_ms_p50"] = median(open.late) * 1e3
	r.m["serve.gen_late_ms_max"] = quantile(open.late, 1) * 1e3
	r.m["serve.swap_ms"] = median(open.swaps) * 1e3
	r.m["serve.swaps"] = float64(len(open.swaps))
	if r.rec != nil {
		snap := r.rec.Snapshot()
		r.m["serve.admitted"] = float64(snap.Counters["serve.admitted"])
		r.m["serve.shed"] = float64(snap.Counters["serve.shed"])
		r.m["batch.size_mean"] = snap.Histograms["batch.size"].Mean
		r.m["batch.wait_ms_p50"] = snap.Histograms["batch.wait_ms"].Quantile(0.5)
	}
	return nil
}

// serving is one running gofmmd-shaped stack: registry, HTTP server and a
// client limited to two keep-alive connections.
type serving struct {
	reg    *serve.Registry
	srv    *serve.Server
	client *http.Client
	url    string
}

// startServing is the timed cold start: map the store, register it with the
// standard serving wiring, listen on loopback and answer one matvec.
func startServing(ctx context.Context, r *runner, sp *telemetry.Span, path string, first serveInput) (*serving, error) {
	c := sp.StartSpan("store:LoadFrom")
	g, _, err := core.LoadFrom(path, r.loadOptions(2))
	c.End()
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(r.rec)
	c = sp.StartSpan("serve:RegisterHierarchical")
	_, err = reg.RegisterHierarchical(ctx, serveOp, g, core.BatchOptions{}, serve.Limits{})
	c.End()
	if err != nil {
		if rerr := g.ReleaseStore(); rerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", rerr)
		}
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Registry: reg, Telemetry: r.rec})
	if err == nil {
		err = srv.Start("127.0.0.1:0")
	}
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &serving{reg: reg, srv: srv, url: "http://" + srv.Addr() + "/v1/operators/" + serveOp + "/matvec",
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}}}
	c = sp.StartSpan("http:POST")
	err = s.post(ctx, first)
	c.End()
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server (which closes the registry and unmaps its store),
// shuts the listener and drops the client's connections.
func (s *serving) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: drain: %v\n", err)
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: shutdown: %v\n", err)
	}
	s.client.CloseIdleConnections()
}

// post sends one octet-stream matvec and checks the reply.
func (s *serving) post(ctx context.Context, in serveInput) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	if len(body) != 8*len(in.want) {
		return fmt.Errorf("reply of %d bytes, want %d", len(body), 8*len(in.want))
	}
	got := make([]float64, len(in.want))
	for i := range got {
		got[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	if d := relDiff(got, in.want); d > serveTol {
		return fmt.Errorf("reply differs from the in-process replay by %.3g", d)
	}
	return nil
}

func encode(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// loopResult is what one loop measured; each connection fills its own and
// the loop merges them after the connections finish.
type loopResult struct {
	t     tally
	lat   []float64 // seconds, successful requests only
	queue []float64 // open loop: due time to send
	late  []float64 // open loop: how late the generator released each request
	swaps []float64 // open loop: seconds per hot swap
	wall  time.Duration
}

func (l *loopResult) merge(o loopResult) {
	l.t.add(o.t)
	l.lat = append(l.lat, o.lat...)
	l.queue = append(l.queue, o.queue...)
}

// closedLoop keeps both connections busy for d, each sending its next
// request when the previous reply arrives.
func (s *serving) closedLoop(ctx context.Context, parent *telemetry.Span, inputs []serveInput, seed int64, d time.Duration) loopResult {
	conns := make([]loopResult, serveConns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range conns {
		wg.Add(1)
		go func(res *loopResult, rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				in := inputs[rng.Intn(len(inputs))]
				sp := parent.StartSpan("http:POST")
				t0 := time.Now()
				err := s.post(ctx, in)
				lat := time.Since(t0)
				sp.End()
				res.t.record(err)
				if err == nil {
					res.lat = append(res.lat, lat.Seconds())
				}
			}
		}(&conns[c], rand.New(rand.NewSource(seed+int64(c))))
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start)}
	for _, c := range conns {
		out.merge(c)
	}
	return out
}

// arrival is one open-loop request: when it is due, and which input.
type arrival struct {
	due   time.Duration
	input int
}

// openLoop releases seeded Poisson arrivals at serveRate for d onto the two
// connections, which take them in order. Latency runs from the due time,
// so a stall also charges the requests queued behind it. Meanwhile the
// operator is hot-swapped serveSwaps times, alternating between the stores.
func (s *serving) openLoop(ctx context.Context, r *runner, parent *telemetry.Span, inputs []serveInput, stores []string, d time.Duration) loopResult {
	rng := rand.New(rand.NewSource(r.seed + serveConns))
	var sched []arrival
	for t := rng.ExpFloat64() / serveRate; t < d.Seconds(); t += rng.ExpFloat64() / serveRate {
		sched = append(sched, arrival{due: time.Duration(t * float64(time.Second)), input: rng.Intn(len(inputs))})
	}
	jobs := make(chan arrival, len(sched)) // one slot per arrival: the generator never blocks
	conns := make([]loopResult, serveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			for a := range jobs {
				due := start.Add(a.due)
				res.queue = append(res.queue, time.Since(due).Seconds())
				sp := parent.StartSpan("http:POST")
				err := s.post(ctx, inputs[a.input])
				lat := time.Since(due)
				sp.End()
				res.t.record(err)
				if err == nil {
					res.lat = append(res.lat, lat.Seconds())
				}
			}
		}(&conns[c])
	}
	swapped := make(chan loopResult, 1)
	stop := make(chan struct{})
	go func() { swapped <- s.swapLoop(ctx, r, parent, stores, d/(serveSwaps+1), stop) }()

	var late []float64
	for _, a := range sched {
		due := start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, time.Since(due).Seconds())
		jobs <- a
	}
	close(jobs)
	wg.Wait()
	close(stop)
	out := <-swapped
	out.late = late
	out.wall = time.Since(start)
	for _, c := range conns {
		out.merge(c)
	}
	return out
}

// swapLoop hot-swaps the served operator every interval until stop closes:
// map the other store and swap it in under the same name while requests
// keep arriving. Each swap counts as one operation.
func (s *serving) swapLoop(ctx context.Context, r *runner, parent *telemetry.Span, stores []string, every time.Duration, stop <-chan struct{}) loopResult {
	var out loopResult
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 1; ; i++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		sp := parent.StartSpan("serve:SwapHierarchical")
		t0 := time.Now()
		err := s.swap(ctx, r, sp, stores[i%len(stores)])
		took := time.Since(t0)
		sp.End()
		out.t.record(err)
		if err == nil {
			out.swaps = append(out.swaps, took.Seconds())
		}
	}
}

func (s *serving) swap(ctx context.Context, r *runner, sp *telemetry.Span, path string) error {
	c := sp.StartSpan("store:LoadFrom")
	g, _, err := core.LoadFrom(path, r.loadOptions(2))
	c.End()
	if err != nil {
		return err
	}
	if _, err := s.reg.SwapHierarchical(ctx, serveOp, g, core.BatchOptions{}, serve.Limits{}); err != nil {
		if rerr := g.ReleaseStore(); rerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", rerr)
		}
		return fmt.Errorf("hot swap: %w", err)
	}
	return nil
}
