package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
)

func TestMain(m *testing.M) { golden.Main(m, main) }

// resultLine is a perfbench result line with one metric.
func resultLine(name, unit string, v float64) string {
	return fmt.Sprintf(`{"correct":true,"attempted":4,"failed":0,"metrics":{%q:{"value":%v,"unit":%q}}}`, name, v, unit)
}

// TestSummary reads ten untraced and ten traced perfbench results and
// ten `go test -bench` lines, among lines to skip.
func TestSummary(t *testing.T) {
	lines := []string{"goos: linux"}
	for _, v := range []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6} {
		lines = append(lines, "perfbench: 12 iterations",
			resultLine("wall_s", "s", v),
			resultLine("event.ns_per_event", "ns", 100+v),
			fmt.Sprintf("BenchmarkLint/check=detflow-2   \t       1\t %v ns/op\t 12.5 extra-unit", 1000*v))
	}
	var out bytes.Buffer
	if err := run(strings.NewReader(strings.Join(append(lines, "PASS"), "\n")), &out); err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	want := map[string]summary{
		"wall_s":                      {P25: 3.25, Median: 5.5, P75: 7.75, N: 10, Unit: "s"},
		"event.ns_per_event":          {P25: 103.25, Median: 105.5, P75: 107.75, N: 10, Unit: "ns"},
		"BenchmarkLint/check=detflow": {P25: 3250, Median: 5500, P75: 7750, N: 10, Unit: "ns/op"},
	}
	if !reflect.DeepEqual(got.Metrics, want) || got.GOMAXPROCS < 1 || got.CPUs < 1 {
		t.Errorf("got %+v, want metrics %+v", got, want)
	}
}

func TestRejects(t *testing.T) {
	ok := resultLine("wall_s", "s", 1)
	ten := func() []string { return slices.Repeat([]string{ok}, 10) }
	cases := map[string][]string{
		"wrong output":     append(ten(), strings.Replace(ok, `"correct":true`, `"correct":false`, 1)),
		"failed operation": append(ten(), strings.Replace(ok, `"failed":0`, `"failed":1`, 1)),
		"nine samples":     ten()[1:],
		"unit mismatch":    append(ten(), resultLine("wall_s", "ms", 1)),
		"malformed bench":  append(ten(), "BenchmarkLint/load-2 1 ns/op"),
		"no input":         nil,
	}
	for name, lines := range cases {
		cmd := golden.Command()
		cmd.Stdin = strings.NewReader(strings.Join(lines, "\n"))
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want status 1", name, err)
		}
		if len(out) != 0 {
			t.Errorf("%s: wrote %q", name, out)
		}
	}
}
