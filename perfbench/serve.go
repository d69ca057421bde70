package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/engine"
	"repro/internal/inject"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix: an in-process lvserve on a loopback listener, driven by a
// closed loop of `concurrency` clients that each wait for their reply.
// The mix holds eval cells, NDJSON sweeps (each pair of sweeps shares a
// cell, so the second hits the run memo) and chaos campaigns; a fixed
// number of requests of each kind repeat earlier bodies byte for byte
// (response-cache hits). Eval cells share no cell with the sweeps, so
// every seed serves the same share of hits: the seed picks the spec
// seeds, which bodies repeat and the order.
const serveInstructions = 30_000

var (
	serveEvalCells = []struct {
		scheme sim.Scheme
		bench  string
		mv     int
	}{
		{sim.FFWBBR, "adpcm", 400}, {sim.SimpleWdis, "adpcm", 480}, {sim.EightT, "429.mcf", 560},
		{sim.FFWBBR, "429.mcf", 440}, {sim.WilkersonPlus, "qsort", 520}, {sim.IDCPlus, "adpcm", 560},
		{sim.FFWBBR, "basicmath", 480}, {sim.FBAPlus, "qsort", 560},
	}
	serveSweeps = []serve.SweepSpec{
		{Schemes: []sim.Scheme{sim.FFWBBR, sim.SimpleWdis}, Benchmarks: []string{"qsort"}, MVs: []int{400, 440}},
		{Schemes: []sim.Scheme{sim.FFWBBR, sim.EightT}, Benchmarks: []string{"qsort"}, MVs: []int{400, 480}},
		{Schemes: []sim.Scheme{sim.WilkersonPlus, sim.FBAPlus}, Benchmarks: []string{"basicmath"}, MVs: []int{440}},
		{Schemes: []sim.Scheme{sim.FBAPlus, sim.IDCPlus}, Benchmarks: []string{"basicmath"}, MVs: []int{440, 520}},
	}
	serveChaos = []struct {
		bench   string
		startMV int
	}{{"qsort", 440}, {"basicmath", 480}, {"adpcm", 400}, {"429.mcf", 520}}
	// serveRepeatsOf is how many repeats of earlier bodies of each kind
	// the mix sends: 60 of its 76 requests, so the median request is a
	// response-cache hit well inside the hits' latency (a hit that waits
	// for CPU behind a computed miss is slower) and the tail is computed
	// misses.
	serveRepeatsOf = map[string]int{"/v1/eval": 30, "/v1/sweep": 15, "/v1/chaos": 15}
	serveKinds     = []string{"/v1/eval", "/v1/sweep", "/v1/chaos"}
)

// request is one served call of the mix.
type request struct {
	path, kind string
	body       []byte
	repeat     bool // the same bytes were sent earlier in the mix
	// cells names the eval cell or each sweep row (in stream order) by
	// scheme, benchmark and voltage, so a cell served from the run memo
	// is counted as simulated work once.
	cells []string
}

func cellName(scheme sim.Scheme, bench string, mv int) string {
	return fmt.Sprintf("%s/%s/%d", scheme, bench, mv)
}

// serveMix generates iteration iter's request list. The seed fixes the
// bodies and which of them repeat; the order differs per iteration
// (shuffled from the seed and iter), so a run's latency percentiles
// average over many interleavings of hits and misses rather than
// depending on one.
func serveMix(seed int64, iter int) ([]request, error) {
	var reqs []request
	add := func(path, kind string, v any, cells ...string) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{path: path, kind: kind, body: b, cells: cells})
		return nil
	}
	for _, c := range serveEvalCells {
		if err := add("/v1/eval", sim.KindRow, sim.RowSpec{Scheme: c.scheme, Benchmark: c.bench, MV: c.mv, Maps: 1,
			Seed: seed, Instructions: serveInstructions, CPU: cpu.DefaultConfig()}, cellName(c.scheme, c.bench, c.mv)); err != nil {
			return nil, err
		}
	}
	for _, s := range serveSweeps {
		s.Maps, s.Seed, s.Instructions = 1, seed, serveInstructions
		var cells []string // the order lvserve expands the grid in
		for _, sc := range s.Schemes {
			for _, b := range s.Benchmarks {
				for _, mv := range s.MVs {
					cells = append(cells, cellName(sc, b, mv))
				}
			}
		}
		if err := add("/v1/sweep", "serve.sweep", s, cells...); err != nil {
			return nil, err
		}
	}
	for i, c := range serveChaos {
		if err := add("/v1/chaos", sim.KindChaos, sim.ChaosSpec{Scheme: sim.FFWBBR, Benchmark: c.bench,
			DieSeed: seed*100 + int64(i), WorkSeed: seed, StartMV: c.startMV,
			Inject: inject.Params{Seed: seed + int64(i), Intensity: 0.5},
			Epochs: 4, EpochInstructions: 8_000, CPU: cpu.DefaultConfig(), Backoff: dvfs.DefaultBackoffConfig()}); err != nil {
			return nil, err
		}
	}
	pick := rand.New(rand.NewSource(seed))
	var repeats []request
	for _, path := range serveKinds {
		var idx []int
		for i, r := range reqs {
			if r.path == path {
				idx = append(idx, i)
			}
		}
		for k := 0; k < serveRepeatsOf[path]; k++ {
			r := reqs[idx[pick.Intn(len(idx))]]
			r.repeat = true
			repeats = append(repeats, r)
		}
	}
	order := rand.New(rand.NewSource(seed*1_000_003 + int64(iter)))
	order.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	// Each repeat goes after its original, at a random position.
	for _, r := range repeats {
		orig := 0
		for reqs[orig].repeat || string(reqs[orig].body) != string(r.body) {
			orig++
		}
		pos := orig + 1 + order.Intn(len(reqs)-orig)
		reqs = append(reqs[:pos], append([]request{r}, reqs[pos:]...)...)
	}
	return reqs, nil
}

// response is one served reply, checked.
type response struct {
	body    []byte
	latency time.Duration
	err     error
}

// sweepEnd mirrors the sweep stream's terminator line.
type sweepEnd struct {
	Done     bool   `json:"done"`
	Rows     int    `json:"rows"`
	Of       int    `json:"of"`
	Complete bool   `json:"complete"`
	Error    string `json:"error,omitempty"`
}

// sweepRow mirrors one NDJSON row of a sweep stream.
type sweepRow struct {
	Index  int           `json:"index"`
	Result sim.RowResult `json:"result"`
}

// checkReply classifies a reply: anything but a 200 (a 503 shed, a 429
// client cap, a 504 deadline) fails, and so does a sweep stream whose
// last line is not its complete:true terminator.
func checkReply(path string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	if path != "/v1/sweep" {
		return nil
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	var end sweepEnd
	if err := json.Unmarshal(lines[len(lines)-1], &end); err != nil || !end.Done || !end.Complete || end.Rows != end.Of {
		return fmt.Errorf("%s: stream ends without its complete terminator", path)
	}
	return nil
}

// post sends one request and reads the whole reply.
func post(ctx context.Context, client *http.Client, base string, r request) response {
	t := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return response{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return response{latency: time.Since(t), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end already; nothing to report
	out := response{body: body, latency: time.Since(t), err: err}
	if err == nil {
		out.err = checkReply(r.path, resp.StatusCode, body)
	}
	return out
}

// liveServer is one lvserve instance on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
}

func startServer() *liveServer {
	srv := serve.New(serve.Config{Workers: concurrency})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: concurrency, MaxIdleConnsPerHost: concurrency, DisableCompression: true}
	return &liveServer{srv: srv, http: hs, client: &http.Client{Transport: tr}}
}

func (s *liveServer) close() {
	s.client.CloseIdleConnections()
	s.http.Close()
	s.srv.Close()
}

// runMix sends the mix through `clients` closed-loop clients.
func runMix(ctx context.Context, s *liveServer, reqs []request, clients int) []response {
	out := make([]response, len(reqs))
	closedLoop(len(reqs), clients, func(i int) { out[i] = post(ctx, s.client, s.http.URL, reqs[i]) })
	return out
}

// reply is one entry of the mix's canonical output.
type reply struct {
	Path    string `json:"path"`
	Request string `json:"request"`
	Body    string `json:"body"`
}

// mixOutput is the mix's canonical output — one reply per distinct
// request body, in body order, so it does not depend on the order the
// iteration sent them in — and the useful instructions the replies
// report, each simulation counted once: repeats (response-cache hits)
// and cells another request already computed (run-memo hits) add none.
// A repeated body must get the same reply as its original.
func mixOutput(reqs []request, resps []response) ([]byte, uint64, error) {
	byBody := map[string]reply{}
	counted := map[string]bool{}
	var instrs uint64
	cell := func(name string, samples int) {
		if !counted[name] {
			counted[name] = true
			instrs += uint64(samples) * serveInstructions
		}
	}
	for i, r := range reqs {
		rp := reply{r.path, string(r.body), string(resps[i].body)}
		if prev, ok := byBody[rp.Request]; ok && prev.Body != rp.Body {
			return nil, 0, fmt.Errorf("request %d (%s): a repeated body got a different reply", i, r.path)
		}
		byBody[rp.Request] = rp
		if resps[i].err != nil || r.repeat {
			continue
		}
		switch r.path {
		case "/v1/eval":
			var rr sim.RowResult
			if err := json.Unmarshal(resps[i].body, &rr); err != nil {
				return nil, 0, err
			}
			cell(r.cells[0], rr.Samples)
		case "/v1/sweep":
			lines := bytes.Split(bytes.TrimRight(resps[i].body, "\n"), []byte("\n"))
			for _, line := range lines[:len(lines)-1] { // the last line is the terminator
				var row sweepRow
				if err := json.Unmarshal(line, &row); err != nil {
					return nil, 0, err
				}
				if row.Index < 0 || row.Index >= len(r.cells) {
					return nil, 0, fmt.Errorf("request %d (%s): row index %d out of %d cells", i, r.path, row.Index, len(r.cells))
				}
				cell(r.cells[row.Index], row.Result.Samples)
			}
		case "/v1/chaos":
			var cr sim.ChaosResult
			if err := json.Unmarshal(resps[i].body, &cr); err != nil {
				return nil, 0, err
			}
			for _, ep := range cr.Epochs {
				instrs += ep.Result.Instructions
			}
		}
	}
	all := make([]reply, 0, len(byBody))
	for _, rp := range byBody {
		all = append(all, rp)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Request < all[j].Request })
	b, err := json.Marshal(all)
	return b, instrs, err
}

var serveWorkload = benchmark{
	name: "serve-mix",
	prepare: func(seed int64, iter int) (*iteration, error) {
		reqs, err := serveMix(seed, iter)
		if err != nil {
			return nil, err
		}
		s := startServer()
		return &iteration{
			run: func(ctx context.Context) (iterOut, error) {
				resps := runMix(ctx, s, reqs, concurrency)
				out := iterOut{}
				for i, r := range resps {
					if r.err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, r.err)
					}
					out.ops = append(out.ops, opSample{latency: r.latency, failed: r.err != nil})
				}
				var err error
				out.output, out.instrs, err = mixOutput(reqs, resps)
				return out, err
			},
			close: s.close,
		}, nil
	},
	check: func(ctx context.Context, seed int64, out iterOut) error {
		var replies []reply
		if err := json.Unmarshal(out.output, &replies); err != nil {
			return err
		}
		eng := sim.NewEngineBounded(concurrency, 4096)
		for _, rp := range replies {
			want, err := computeDirect(ctx, eng, request{path: rp.Path, body: []byte(rp.Request)})
			if err != nil {
				return err
			}
			if rp.Body != string(want) {
				return fmt.Errorf("%s %s: served body differs from the same spec computed directly", rp.Path, rp.Request)
			}
		}
		return nil
	},
	trace: traceServe,
}

// computeDirect computes a request's reply body without the server,
// the way the server's handlers compute it.
func computeDirect(ctx context.Context, eng *sim.Engine, r request) ([]byte, error) {
	marshal := func(v any) ([]byte, error) {
		b, err := json.Marshal(v)
		return append(b, '\n'), err
	}
	switch r.path {
	case "/v1/eval":
		var spec sim.RowSpec
		if err := json.Unmarshal(r.body, &spec); err != nil {
			return nil, err
		}
		res, err := eng.EvalRow(ctx, spec)
		if err != nil {
			return nil, err
		}
		return marshal(res)
	case "/v1/chaos":
		var spec sim.ChaosSpec
		if err := json.Unmarshal(r.body, &spec); err != nil {
			return nil, err
		}
		res, err := eng.RunChaos(ctx, spec)
		if err != nil {
			return nil, err
		}
		return marshal(res)
	case "/v1/sweep":
		var spec serve.SweepSpec
		if err := json.Unmarshal(r.body, &spec); err != nil {
			return nil, err
		}
		var cells []sim.RowSpec
		for _, s := range spec.Schemes {
			for _, b := range spec.Benchmarks {
				for _, mv := range spec.MVs {
					cells = append(cells, sim.RowSpec{Scheme: s, Benchmark: b, MV: mv, Maps: spec.Maps,
						Seed: spec.Seed, Instructions: spec.Instructions, CPU: cpu.DefaultConfig()})
				}
			}
		}
		rows, err := engine.Map(ctx, eng.Pool(), len(cells), func(ctx context.Context, i int) (sim.RowResult, error) {
			return eng.EvalRow(ctx, cells[i])
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for i, row := range rows {
			line, err := marshal(sweepRow{Index: i, Result: row})
			if err != nil {
				return nil, err
			}
			buf.Write(line)
		}
		end, err := marshal(sweepEnd{Done: true, Rows: len(cells), Of: len(cells), Complete: true})
		buf.Write(end)
		return buf.Bytes(), err
	}
	return nil, fmt.Errorf("no direct computation for %s", r.path)
}

func traceServe(ctx context.Context, seed int64, tr *tracer) (layerMetrics, error) {
	reqs, err := serveMix(seed, 0)
	if err != nil {
		return nil, err
	}
	// Untraced and traced passes with one client, so a miss's latency
	// minus its direct computation is the serving overhead alone.
	s := startServer()
	t := time.Now()
	plain := runMix(ctx, s, reqs, 1)
	untraced := time.Since(t)
	s.close()
	for i, r := range plain {
		if r.err != nil {
			return nil, fmt.Errorf("request %d: %w", i, r.err)
		}
	}

	// Each miss is then computed directly, right after it was served
	// and in the same order on a fresh engine (so its run memo sees
	// what the server's saw): the request's compute is that much of its
	// span, the rest is serving overhead. Timing the two back to back
	// keeps a change in the host's speed from being read as overhead.
	s = startServer()
	defer s.close()
	eng := sim.NewEngineBounded(concurrency, 4096)
	resps := make([]response, len(reqs))
	direct := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		var hash string
		switch r.path {
		case "/v1/eval":
			hash, _, err = sim.CanonicalHash(r.kind, r.body, new(sim.RowSpec))
		case "/v1/sweep":
			hash, _, err = sim.CanonicalHash(r.kind, r.body, new(serve.SweepSpec))
		default:
			hash, _, err = sim.CanonicalHash(r.kind, r.body, new(sim.ChaosSpec))
		}
		if err != nil {
			return nil, err
		}
		id := tr.begin("serve.request", hash)
		resps[i] = post(ctx, s.client, s.http.URL, r)
		tr.end(id)
		if resps[i].err != nil {
			return nil, fmt.Errorf("request %d: %w", i, resps[i].err)
		}
		if !bytes.Equal(resps[i].body, plain[i].body) {
			return nil, fmt.Errorf("request %d: traced reply differs from the untraced one", i)
		}
		if r.repeat {
			continue
		}
		ct := time.Now()
		want, err := computeDirect(ctx, eng, r)
		direct[i] = time.Since(ct)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, resps[i].body) {
			return nil, fmt.Errorf("request %d: served body differs from the direct computation", i)
		}
		tr.virtual(id, "sim.compute", direct[i])
	}
	var served time.Duration
	for _, r := range resps {
		served += r.latency
	}

	var hitNS, missOverNS float64
	var hits, misses int
	var injected, recovery uint64
	var cycles float64
	var transitions int
	for i, r := range reqs {
		resp := resps[i]
		if r.repeat {
			hits++
			hitNS += float64(resp.latency)
			continue
		}
		misses++
		missOverNS += float64(resp.latency - direct[i])
		if r.path == "/v1/chaos" {
			var cr sim.ChaosResult
			if err := json.Unmarshal(resp.body, &cr); err != nil {
				return nil, err
			}
			injected += cr.Totals.Injected()
			transitions += cr.StepUps + cr.StepDowns
			for _, ep := range cr.Epochs {
				recovery += uint64(ep.Result.RecoveryCycles)
				cycles += ep.Result.Cycles()
			}
		}
	}

	st := s.srv.Stats()
	lm := layerMetrics{}
	lm["serve.hit_latency_ms"] = ratio(hitNS, float64(hits)) / 1e6
	lm["serve.miss_overhead_ms"] = ratio(missOverNS, float64(misses)) / 1e6
	lm["serve.cache_hit_frac"] = ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses))
	lm["serve.run_memo_hit_frac"] = ratio(float64(st.RunMemo.Hits), float64(st.RunMemo.Hits+st.RunMemo.Misses))
	lm["engine.memo_hit_frac"] = lm["serve.run_memo_hit_frac"]
	lm["inject.faults_injected"] = float64(injected)
	lm["inject.recovery_cycle_frac"] = ratio(float64(recovery), cycles)
	lm["dvfs.transitions"] = float64(transitions)
	lm["trace.overhead_frac"] = ratio(float64(served), float64(untraced)) - 1
	return lm, nil
}
