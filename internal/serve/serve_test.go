package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// fakeRow is a deterministic synthetic row computation: the result is
// a pure function of the spec, so coalescing and caching are testable
// without paying for real simulations.
func fakeRow(ctx context.Context, spec sim.RowSpec) (sim.RowResult, error) {
	if err := ctx.Err(); err != nil {
		return sim.RowResult{}, err
	}
	return sim.RowResult{
		Samples:     spec.Maps,
		MeanCPI:     float64(spec.MV) / 100,
		MeanNormEPI: float64(spec.Seed) + 0.25,
	}, nil
}

// newTestServer builds a server with the synthetic row seam and an
// httptest front end. The returned server is hard-cancelled at
// cleanup so no drain timers or blocked jobs outlive the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	s.runRow = fakeRow
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		// Cancel in-flight work first: httptest's Close waits for open
		// connections, which blocked computations would hold forever.
		s.Close()
		ts.Close()
	})
	return s, ts
}

// post issues one POST and returns status, body and headers.
func post(t *testing.T, url, path, body string, header map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

const sweepBody = `{"schemes":["8T","Simple-wdis"],"benchmarks":["basicmath"],"mvs":[400,440],"maps":2,"seed":7,"instructions":60000}`

// Key-order and whitespace variants of sweepBody: same canonical spec.
var sweepBodyVariants = []string{
	sweepBody,
	`{"mvs":[400,440],"maps":2,"seed":7,"instructions":60000,"schemes":["8T","Simple-wdis"],"benchmarks":["basicmath"]}`,
	"{\n  \"benchmarks\": [\"basicmath\"],\n  \"schemes\": [\"8T\", \"Simple-wdis\"],\n  \"instructions\": 60000,\n  \"seed\": 7,\n  \"maps\": 2,\n  \"mvs\": [400, 440]\n}",
}

func TestSweepCoalescesToOneComputeAndIdenticalBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	const clients = 3
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, hdr := post(t, ts.URL, "/v1/sweep", sweepBodyVariants[i%len(sweepBodyVariants)],
				map[string]string{"X-Client": fmt.Sprintf("c%d", i)})
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			if ct := hdr.Get("Content-Type"); ct != ndjsonType {
				t.Errorf("client %d: content type %q", i, ct)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("bodies differ between clients 0 and %d:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
	st := s.Stats()
	if got := st.Computes[kindSweep]; got != 1 {
		t.Fatalf("sweep computes = %d, want 1 (herd must coalesce)", got)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != clients-1 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", st.Cache.Hits, st.Cache.Misses, clients-1)
	}
	assertCleanStream(t, bodies[0], 4, true)
}

// TestSweepByteIdenticalAcrossWorkerCounts pins the workers-1/2/N
// invariant at the HTTP layer: fresh servers at different worker
// bounds serve byte-identical bodies for the same request.
func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		status, body, _ := post(t, ts.URL, "/v1/sweep", sweepBody, nil)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if want == nil {
			want = body
		} else if !bytes.Equal(want, body) {
			t.Fatalf("workers=%d body differs:\n%s\n%s", workers, want, body)
		}
	}
}

func TestEvalCachedAndDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"scheme":"8T","benchmark":"basicmath","mv":400,"maps":2,"seed":3,"instructions":60000}`
	reordered := `{"instructions":60000,"seed":3,"maps":2,"mv":400,"benchmark":"basicmath","scheme":"8T"}`

	status1, b1, hdr := post(t, ts.URL, "/v1/eval", body, nil)
	if status1 != http.StatusOK {
		t.Fatalf("status %d: %s", status1, b1)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	status2, b2, _ := post(t, ts.URL, "/v1/eval", reordered, nil)
	if status2 != http.StatusOK {
		t.Fatalf("status %d: %s", status2, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("key order changed the body:\n%s\n%s", b1, b2)
	}
	if got := s.Stats().Computes[kindEval]; got != 1 {
		t.Fatalf("eval computes = %d, want 1 (second request must hit)", got)
	}
	var res sim.RowResult
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatalf("body not a RowResult: %v", err)
	}
	if res.Samples != 2 || res.MeanCPI != 4 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestEvalRealSimulation exercises the unsubstituted engine path end
// to end once, with a deliberately tiny run.
func TestEvalRealSimulation(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	body := `{"scheme":"DefectFree","benchmark":"basicmath","mv":560,"maps":1,"seed":1,"instructions":20000,"cpu":{"Width":2,"MispredictPenalty":10,"LoadExposure":0.4}}`
	status, b1, _ := post(t, ts.URL, "/v1/eval", body, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b1)
	}
	_, b2, _ := post(t, ts.URL, "/v1/eval", body, nil)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("repeat request changed the body:\n%s\n%s", b1, b2)
	}
	var res sim.RowResult
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Samples != 1 || res.MeanCPI <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		header           map[string]string
		wantStatus       int
		wantCode         string
	}{
		{name: "unknown field", path: "/v1/eval", body: `{"scheme":"8T","typo":1}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "unknown scheme", path: "/v1/eval", body: `{"scheme":"9T","benchmark":"basicmath","mv":400,"maps":1,"instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "bad voltage", path: "/v1/eval", body: `{"scheme":"8T","benchmark":"basicmath","mv":123,"maps":1,"instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "zero instructions", path: "/v1/eval", body: `{"scheme":"8T","benchmark":"basicmath","mv":400,"maps":1}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "sweep both forms", path: "/v1/sweep", body: `{"cells":[{"scheme":"8T","benchmark":"basicmath","mv":400,"maps":1,"instructions":1000}],"schemes":["8T"]}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "sweep empty", path: "/v1/sweep", body: `{}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "bad deadline", path: "/v1/eval", body: `{}`, header: map[string]string{"X-Deadline": "soon"}, wantStatus: 400, wantCode: "bad_deadline"},
		{name: "trailing garbage", path: "/v1/eval", body: `{"scheme":"8T"} extra`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "chaos invalid", path: "/v1/chaos", body: `{"Benchmark":"basicmath","StartMV":400,"Epochs":0,"EpochInstructions":1}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "hier invalid", path: "/v1/hier", body: `{"instructions":0}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "die unknown bench", path: "/v1/die", body: `{"scheme":"8T","benchmark":"nope","instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "die unsupported scheme", path: "/v1/die", body: `{"scheme":"SECDED","benchmark":"basicmath","instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "hier unknown scheme", path: "/v1/hier", body: `{"scheme":"zzz","cores":[{"benchmark":"basicmath","mv":400}],"instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
		{name: "hier unknown core scheme", path: "/v1/hier", body: `{"scheme":"8T","cores":[{"scheme":"zzz","benchmark":"basicmath","mv":400}],"instructions":1000}`, wantStatus: 400, wantCode: "bad_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, ts.URL, tc.path, tc.body, tc.header)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", status, tc.wantStatus, body)
			}
			var eb errBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %v: %s", err, body)
			}
			if eb.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (%s)", eb.Code, tc.wantCode, eb.Error)
			}
		})
	}
}

func TestMethodDiscipline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/eval = %d, want 405", resp.StatusCode)
	}
	status, body, _ := post(t, ts.URL, "/v1/stats", "", nil)
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d: %s", status, body)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Draining {
		t.Fatal("fresh server reports draining")
	}
	if st.Admission.MaxActive <= 0 || st.Admission.MaxQueue <= 0 {
		t.Fatalf("defaults not resolved: %+v", st.Admission)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
}

// assertCleanStream parses an NDJSON sweep body: every line whole
// JSON, row indices 0..rows-1 in order, terminator last with the
// given completeness.
func assertCleanStream(t *testing.T, body []byte, wantRows int, wantComplete bool) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatal("stream does not end in a newline (torn last line)")
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	for i, line := range lines[:len(lines)-1] {
		var row sweepRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row line %d not JSON (torn row?): %v: %q", i, err, line)
		}
		if row.Index != i {
			t.Fatalf("row %d carries index %d (out of order)", i, row.Index)
		}
	}
	var end sweepEnd
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		t.Fatalf("terminator not JSON: %v: %q", err, lines[len(lines)-1])
	}
	if !end.Done {
		t.Fatalf("terminator lacks done: %+v", end)
	}
	if end.Rows != len(lines)-1 {
		t.Fatalf("terminator rows %d, stream has %d", end.Rows, len(lines)-1)
	}
	if wantComplete {
		if !end.Complete || end.Rows != wantRows {
			t.Fatalf("stream incomplete: %+v, want %d rows", end, wantRows)
		}
	} else if end.Complete {
		t.Fatalf("interrupted stream claims completeness: %+v", end)
	}
}

// TestSweepCellCapRejectsHugeGrid: an over-cap grid must cost a 400,
// not the memory it names — the product is checked before any cell is
// allocated, so even an absurd grid (duplicate-laden axes multiplying
// to ~1e15 cells from a small body) is refused instantly.
func TestSweepCellCapRejectsHugeGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepCells: 4})
	cases := []struct{ name, body string }{
		{"grid over cap", `{"schemes":["8T","DefectFree"],"benchmarks":["basicmath"],"mvs":[400,440,480],"instructions":1000}`},
		{"cells over cap", `{"cells":[` + strings.Repeat(`{"scheme":"8T","benchmark":"basicmath","mv":400,"maps":1,"instructions":1000},`, 4) +
			`{"scheme":"8T","benchmark":"basicmath","mv":440,"maps":1,"instructions":1000}]}`},
		{"duplicate scheme", `{"schemes":["8T","8T"],"benchmarks":["basicmath"],"mvs":[400],"instructions":1000}`},
		{"duplicate mv", `{"schemes":["8T"],"benchmarks":["basicmath"],"mvs":[400,400],"instructions":1000}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, ts.URL, "/v1/sweep", tc.body, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", status, body)
			}
			var eb errBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "bad_spec" {
				t.Fatalf("envelope %+v (err %v), want code bad_spec", eb, err)
			}
		})
	}

	// The expansion itself must refuse a monster grid without sizing a
	// slice for it: three 100k-entry axes name 1e15 cells from ~1 MiB
	// of JSON. If this allocated first, the test would OOM, not fail.
	huge := SweepSpec{
		Schemes:      make([]sim.Scheme, 100_000),
		Benchmarks:   make([]string, 100_000),
		MVs:          make([]int, 100_000),
		Instructions: 1000,
	}
	if _, err := huge.expand(4096); err == nil {
		t.Fatal("1e15-cell grid expanded without error")
	}
	if _, err := huge.expand(-1); err == nil {
		t.Fatal("uncapped 1e15-cell grid must still fail (duplicate axis entries)")
	}
}

// errAfterWriter fails every Write after the first n succeed —
// a client whose connection dies mid-stream, as seen by a
// ResponseWriter wrapper that does not cancel the request context.
type errAfterWriter struct{ n int }

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("client gone")
	}
	w.n--
	return len(p), nil
}

// TestClientWriteErrorStillYieldsCompleteBody: when the client's write
// fails but the run context stays live, the client detaches and the
// accumulated body — the one the cache would store and replay to every
// future identical request — must still be the complete stream.
func TestClientWriteErrorStillYieldsCompleteBody(t *testing.T) {
	s := New(Config{Workers: 2})
	s.runRow = fakeRow
	t.Cleanup(s.Close)
	spec := SweepSpec{
		Schemes: []sim.Scheme{sim.EightT}, Benchmarks: []string{"basicmath"},
		MVs: []int{400, 440, 480}, Instructions: 1000,
	}
	cells, err := spec.expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.streamSweep(context.Background(), nil, nil, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.streamSweep(context.Background(), &errAfterWriter{1}, nil, cells)
	if err != nil {
		t.Fatalf("stream with a dead client errored: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("body after client write error differs from the detached run:\n%q\n%q", got, want)
	}
	assertCleanStream(t, got, len(cells), true)
}

func TestSweepExplicitCellsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"cells":[
		{"scheme":"8T","benchmark":"basicmath","mv":400,"maps":1,"seed":1,"instructions":1000},
		{"scheme":"8T","benchmark":"basicmath","mv":440,"maps":1,"seed":1,"instructions":1000},
		{"scheme":"8T","benchmark":"basicmath","mv":480,"maps":1,"seed":1,"instructions":1000}
	]}`
	status, data, _ := post(t, ts.URL, "/v1/sweep", body, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	assertCleanStream(t, data, 3, true)
}

// TestSweepRowNotBoundedByRunTimeout: the engine's job timeout bounds
// each simulation run, not a whole sweep row. A row that takes longer
// than the per-run bound, while each run inside it stays within it,
// must still stream to completion.
func TestSweepRowNotBoundedByRunTimeout(t *testing.T) {
	eng := sim.NewEngine(2)
	eng.SetJobTimeout(30 * time.Millisecond)
	s, ts := newTestServer(t, Config{Engine: eng})
	s.runRow = func(ctx context.Context, spec sim.RowSpec) (sim.RowResult, error) {
		select {
		case <-time.After(60 * time.Millisecond):
			return fakeRow(ctx, spec)
		case <-ctx.Done():
			return sim.RowResult{}, ctx.Err()
		}
	}
	body := `{"schemes":["8T"],"benchmarks":["basicmath"],"mvs":[400,440],"instructions":1000}`
	status, data, _ := post(t, ts.URL, "/v1/sweep", body, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	assertCleanStream(t, data, 2, true)
}

// TestHierYieldFailIsCachedDatum: a die set no core scheme can cover is
// a Monte Carlo datum on every surface. /v1/hier answers 200 with the
// body a dist worker produces, and a repeat is a cache hit.
func TestHierYieldFailIsCachedDatum(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	spec := sim.HierSpec{
		Scheme: sim.Conventional, Instructions: 10_000, CPU: cpu.DefaultConfig(),
		Cores: []sim.HierCoreSpec{{Benchmark: "qsort", MV: 400, MapSeed: 1, WorkSeed: 1}},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&sim.HierResult{YieldFail: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		status, got, _ := post(t, ts.URL, "/v1/hier", string(body), nil)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, got)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("request %d: body %s, want %s", i, got, want)
		}
	}
	if got := s.Stats().Computes[kindHier]; got != 1 {
		t.Fatalf("hier computes = %d, want 1 (the repeat must hit the cache)", got)
	}
}
