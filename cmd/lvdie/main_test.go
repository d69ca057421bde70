package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main() instead of the
// tests: the digest test re-executes the binary with command-line
// flags, and -shards workers re-execute it again with the hidden worker
// argument, exactly as they re-execute the real command.
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

// TestOutputDigests pins the command's stdout byte for byte in each
// mode, in-process and across two worker processes.
func TestOutputDigests(t *testing.T) {
	modes := map[string][]string{
		"single": {"-bench", "qsort", "-scheme", "FFW+BBR", "-die", "3", "-n", "20000"},
		"dies":   {"-bench", "qsort", "-dies", "3", "-n", "20000"},
	}
	checkDigests(t, modes)
}

// checkDigests runs every mode at -shards 0 and -shards 2 and compares
// the sha256 of stdout against digestFile.
func checkDigests(t *testing.T, modes map[string][]string) {
	t.Helper()
	want := readDigests(t)
	for name, args := range modes {
		for _, shards := range []string{"0", "2"} {
			cmd := exec.Command(os.Args[0], append(args, "-shards", shards)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s -shards %s: %v\n%s", name, shards, err, stderr.String())
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s -shards %s: stdout digest %s, want %s\n%s", name, shards, got, want[name], out)
			}
		}
	}
	if len(want) != len(modes) {
		t.Errorf("%s names %d modes, the test runs %d", digestFile, len(want), len(modes))
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
