package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

const completeSweep = `{"index":0,"result":{"samples":1,"yield_fails":0,"mean_cpi":1,"mean_runtime_ms":1,"mean_l2k":1,"mean_norm_epi":1}}
{"done":true,"rows":1,"of":1,"complete":true}
`

// Refused replies (503 shed, 429 client cap, 504 deadline) and a sweep
// stream without its complete:true terminator are failures; only a 200
// with a whole body is not.
func TestCheckReplyCountsRefusalsAndTruncatedStreams(t *testing.T) {
	cases := []struct {
		name, path string
		status     int
		body       string
		fail       bool
	}{
		{"eval ok", "/v1/eval", 200, "{}\n", false},
		{"shed", "/v1/eval", 503, `{"error":"saturated","code":"shed"}`, true},
		{"client cap", "/v1/chaos", 429, `{"error":"limited"}`, true},
		{"deadline", "/v1/eval", 504, `{"error":"deadline"}`, true},
		{"sweep ok", "/v1/sweep", 200, completeSweep, false},
		{"sweep without terminator", "/v1/sweep", 200, completeSweep[:len(completeSweep)-len(`{"done":true,"rows":1,"of":1,"complete":true}`)-1], true},
		{"sweep cut short", "/v1/sweep", 200, `{"done":true,"rows":0,"of":1,"complete":false,"error":"draining"}` + "\n", true},
	}
	for _, c := range cases {
		if err := checkReply(c.path, c.status, []byte(c.body)); (err != nil) != c.fail {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fail)
		}
	}
}

func TestPostReportsRefusedRequests(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests, http.StatusGatewayTimeout} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
		}))
		resp := post(context.Background(), hs.Client(), hs.URL, request{path: "/v1/eval", body: []byte("{}")})
		hs.Close()
		if resp.err == nil {
			t.Errorf("status %d was not counted as failed", status)
		}
	}
}

// The end-to-end harness counts every failed operation, and every
// operation of an iteration whose output digest differs from the
// first's, against the operations attempted.
func TestHarnessCountsFailures(t *testing.T) {
	iter := 0
	w := benchmark{
		name: "fake",
		prepare: func(int64, int) (*iteration, error) {
			return &iteration{
				run: func(context.Context) (iterOut, error) {
					iter++ // setup_s also calls prepare; count runs
					n := iter
					out := iterOut{output: []byte("same"), instrs: 1}
					for i := 0; i < minTailSamples; i++ {
						out.ops = append(out.ops, opSample{latency: time.Millisecond, failed: i < 3})
					}
					if n == 2 {
						out.output = []byte("different")
					}
					time.Sleep(time.Millisecond)
					return out, nil
				},
				close: func() {},
			}, nil
		},
		check: func(context.Context, int64, iterOut) error { return nil },
	}
	res, err := runEndToEnd(context.Background(), w, 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if iter < 2 {
		t.Fatalf("only %d iterations ran", iter)
	}
	want := 3*(iter-1) + minTailSamples
	if res.Attempted != iter*minTailSamples || res.Failed != want {
		t.Errorf("attempted %d failed %d, want %d and %d", res.Attempted, res.Failed, iter*minTailSamples, want)
	}
	if res.Correct {
		t.Error("a run with failures reported correct")
	}
	if max := res.Metrics["latency_p50_ms"].Value; iter == 2 && max != finite(math.Inf(1)) {
		t.Errorf("with half the operations failed, p50 latency is %v, not a miss", max)
	}
}
