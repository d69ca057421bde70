package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// recorder collects what Check reports instead of failing the test.
type recorder struct {
	testing.TB
	msgs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

// TestCheck feeds Check each kind of input and asserts what the failure
// names: the file and line, the differing bytes, the case of a long
// line, and a cp command that installs exactly the new output.
func TestCheck(t *testing.T) {
	long := func(hits string) string {
		return "run/FFW+BBR/400mV/map1\t{\"Cycles\":" + strings.Repeat("1", 150) + `,"Hits":` + hits + `,"Misses":` + strings.Repeat("2", 150) + "}\n"
	}
	window := func(hits string) string {
		return "…" + strings.Repeat("1", 72) + `,"Hits":` + hits + `,"Misses":` + strings.Repeat("2", 29) + "…"
	}
	for _, c := range []struct{ name, want, got, names string }{
		{"match", "a\nb\n", "a\nb\n", ""},
		{"short line", "a\nb\nc\n", "a\nB\nc\n", `case.golden:2: output differs from the golden file|want: "b\n"|got:  "B\n"`},
		{"extra line", "a\n", "a\nb\n", `case.golden:2:|want: ""|got:  "b\n"`},
		{"long line", "x\n" + long("5"), "x\n" + long("6"),
			`case.golden:2: output differs from the golden file at byte 192 of the line, which starts "run/FFW+BBR/400mV/map1"|want: ` + window("5") + "|got:  " + window("6")},
		{"missing file", "", "new\n", "case.golden: no such file or directory"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "case.golden")
			if c.want != "" {
				if err := os.WriteFile(path, []byte(c.want), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r := &recorder{TB: t}
			if Check(r, path, []byte(c.got)); len(r.msgs) != min(len(c.names), 1) {
				t.Fatalf("failures %q, want %d", r.msgs, min(len(c.names), 1))
			}
			if c.names == "" {
				return
			}
			for _, s := range strings.Split(c.names, "|") {
				if !strings.Contains(r.msgs[0], s) {
					t.Errorf("failure does not name %q:\n%s", s, r.msgs[0])
				}
			}
			_, cp, _ := strings.Cut(r.msgs[0], "  cp ")
			saved, dst, _ := strings.Cut(cp, " ")
			defer os.Remove(saved)
			if b, err := os.ReadFile(saved); dst != path || err != nil || string(b) != c.got {
				t.Errorf("cp %s %s installs %q (%v), want %q in %s", saved, dst, b, err, c.got, path)
			}
		})
	}
}

// TestStale reports exactly the golden files that no Check compared.
func TestStale(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"used.golden", "unused.golden", "corpus.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var checked sync.Map
	checked.Store(filepath.Join(dir, "used.golden"), true)
	if got, want := stale(dir, &checked), []string{filepath.Join(dir, "unused.golden")}; !reflect.DeepEqual(got, want) {
		t.Errorf("stale = %q, want %q", got, want)
	}
}
