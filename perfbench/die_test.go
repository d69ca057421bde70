package main

import (
	"context"
	"os"
	"testing"

	"repro/internal/dist"
)

// TestMain lets the test binary serve as die-campaign's dist worker.
func TestMain(m *testing.M) {
	dist.MaybeWorkerMain()
	os.Exit(m.Run())
}

// A campaign whose worker crashed is a failed operation even though the
// other worker (or the in-process fallback) still completes every row
// correctly: the run did not time what it claims to.
func TestDieCampaignFailsOnSupervisionWarnings(t *testing.T) {
	payloads, setup, err := diePayloads(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows, err := dieCampaign(ctx, payloads, setup, "", dieShards, nil)
	if err != nil {
		t.Fatalf("clean campaign: %v", err)
	}
	if len(rows) != len(payloads) {
		t.Fatalf("clean campaign returned %d rows for %d dies", len(rows), len(payloads))
	}
	for name, env := range map[string][]string{
		"one worker crashed":  {"LVDIST_TEST_CRASH_INDEX=0"},
		"in-process fallback": {"LVDIST_TEST_CRASH_EVERY=0"},
	} {
		if _, err := dieCampaign(ctx, payloads, setup, "", dieShards, env); err == nil {
			t.Errorf("%s: campaign reported no failure", name)
		}
	}
}
