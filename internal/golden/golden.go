// Package golden pins test output to golden files: the exact bytes,
// checked in as testdata/*.golden in the package directory. A mismatch
// names the file, the first differing line and, on a long line, the
// bytes around the first difference; it also saves the full output and
// prints the cp command that installs it. There is no update flag:
// installing new golden bytes is always that explicit cp.
package golden

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// runMainEnv, when set, makes Main run the package's main function
// instead of its tests.
const runMainEnv = "LVCACHE_TEST_RUN_MAIN"

// A line longer than longLine is shown as a window from before bytes
// ahead of its first difference to after bytes past it, so a
// one-line-per-case file still shows the field that changed.
const longLine, before, after = 200, 80, 40

// checked holds every path Check compared in this test binary.
var checked sync.Map

// Main is a package's TestMain. In a binary that Command re-executed it
// runs main and exits. Otherwise it runs the tests; when every test ran
// and passed, it then fails on any testdata/*.golden file that no Check
// call compared.
func Main(m *testing.M, main func()) {
	if main != nil && os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	code := m.Run()
	filtered := false
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		filtered = filtered || flag.Lookup(name).Value.String() != ""
	}
	if code == 0 && !filtered {
		for _, path := range stale("testdata", &checked) {
			fmt.Fprintf(os.Stderr, "golden: %s: no test case produced this golden file\n", path)
			code = 1
		}
	}
	os.Exit(code)
}

// stale lists the golden files in dir that are not in checked.
func stale(dir string, checked *sync.Map) []string {
	var unused []string
	paths, _ := filepath.Glob(filepath.Join(dir, "*.golden")) // the pattern is well-formed
	for _, path := range paths {
		if _, ok := checked.Load(path); !ok {
			unused = append(unused, path)
		}
	}
	return unused
}

// Command returns a command that re-executes the test binary as the
// package's main with args; the package's TestMain must call Main. The
// command's environment reaches every worker process that main starts
// by re-executing itself, so those run main too.
func Command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// CheckStdout runs Command(args...) in a subtest named after args and
// checks its stdout against the golden file at path. A nonzero exit
// fails the subtest with the command's stderr.
func CheckStdout(t *testing.T, path string, args ...string) {
	t.Run(fmt.Sprint(args), func(t *testing.T) {
		cmd := Command(args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		Check(t, path, out)
	})
}

// Check compares got with the golden file at path, relative to the
// package directory. On a mismatch it reports where the bytes first
// differ, saves got to a temporary file outside the package and prints
// the cp command that installs it.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	path = filepath.Clean(path)
	checked.Store(path, true)
	want, err := os.ReadFile(path)
	if err == nil && bytes.Equal(got, want) {
		return
	}
	msg := fmt.Sprint(err)
	if err == nil {
		msg = diff(path, string(want), string(got))
	}
	t.Errorf("%s\n%s", msg, install(path, got))
}

// diff describes the first line on which want and got differ; they must
// differ. A line past the end of either shows as "".
func diff(path, want, got string) string {
	wl, gl := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	i := 0
	for wl[i] == gl[i] {
		i++
	}
	w, g := wl[i], gl[i]
	if len(w) <= longLine && len(g) <= longLine {
		return fmt.Sprintf("%s:%d: output differs from the golden file\n  want: %q\n  got:  %q", path, i+1, w, g)
	}
	j := 0
	for j < len(w) && j < len(g) && w[j] == g[j] {
		j++
	}
	name, _, _ := strings.Cut(w[:min(j, 60)], "\t")
	window := func(s string) string { return s[max(j-before, 0):min(j+after, len(s))] }
	return fmt.Sprintf("%s:%d: output differs from the golden file at byte %d of the line, which starts %q\n  want: …%s…\n  got:  …%s…",
		path, i+1, j+1, name, window(w), window(g))
}

// install saves got outside the package and says how to install it.
func install(path string, got []byte) string {
	abs, err := filepath.Abs(path)
	f, ferr := os.CreateTemp("", "golden-*-"+filepath.Base(path))
	if err = errors.Join(err, ferr); err == nil {
		_, err = f.Write(got)
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		return "the output could not be saved: " + err.Error()
	}
	return fmt.Sprintf("full output saved; to install it as the golden file:\n  cp %s %s", f.Name(), abs)
}
