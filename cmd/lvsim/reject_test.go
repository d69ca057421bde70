package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestRejectsWhatTheServiceRejects: a spec lvserve would refuse with a
// 400 makes the command exit 1 before it prints anything.
func TestRejectsWhatTheServiceRejects(t *testing.T) {
	cases := map[string][]string{
		"no fault maps":           {"-bench", "qsort", "-n", "1000", "-maps", "0"},
		"no instructions":         {"-bench", "qsort", "-n", "0"},
		"unknown scheme":          {"-scheme", "9T", "-bench", "qsort", "-n", "1000"},
		"hierarchy no fault maps": {"-hierarchy", "-bench", "qsort", "-n", "1000", "-maps", "0"},
		"hierarchy bad voltage":   {"-hierarchy", "-bench", "qsort", "-n", "1000", "-mv", "123"},
	}
	for name, args := range cases {
		cmd := golden.Command(args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1 (stderr %q)", name, err, stderr.String())
		}
		if len(out) != 0 {
			t.Errorf("%s: printed %q before rejecting", name, out)
		}
	}
}
