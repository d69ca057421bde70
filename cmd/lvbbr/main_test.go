package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
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

// TestOutputDigests pins the command's stdout byte for byte with its
// default flags.
func TestOutputDigests(t *testing.T) {
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	digest, name, ok := strings.Cut(strings.TrimSpace(string(data)), "  ")
	if !ok || name != "default" {
		t.Fatalf("%s: want one line \"<digest>  default\", got %q", digestFile, data)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("stdout digest %s, want %s\n%s", got, digest, out)
	}
}
