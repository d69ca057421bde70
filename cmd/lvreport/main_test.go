package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main() instead of the
// tests, so the digest test drives the real command-line front end.
const runMainEnv = "LVCACHE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// digestFile holds one sha256 of stdout per mode: "<digest>  <mode>".
const digestFile = "testdata/digests.txt"

// workersRe matches the Figures 10-12 provenance line's worker count,
// the one piece of the report that names the host rather than the
// results; it is masked before hashing so every worker count shares a
// digest.
var workersRe = regexp.MustCompile(`workers=\d+\)`)

// TestOutputDigests pins the quick full report byte for byte, on one
// worker and on the default worker count.
func TestOutputDigests(t *testing.T) {
	want := readDigests(t)
	for _, args := range [][]string{{"-all", "-quick", "-workers", "1"}, {"-all", "-quick"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		sum := sha256.Sum256(workersRe.ReplaceAll(out, []byte("workers=N)")))
		if got := hex.EncodeToString(sum[:]); got != want["all-quick"] {
			t.Errorf("%v: stdout digest %s, want %s\n%s", args, got, want["all-quick"], out)
		}
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[name] = digest
	}
	return want
}
