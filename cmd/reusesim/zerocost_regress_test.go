package main

import (
	"strings"
	"testing"
)

// Regression tests for the tap call sites the zerocost analyzer flagged:
// every flag combination that reads m.Tel after the run must reach its
// output path with the tap actually attached.

func TestPipetraceFlagRendersRecorder(t *testing.T) {
	stdout, stderr, code := runMain(t, "-kernel", "aps", "-pipetrace", "32")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "recorded") || !strings.Contains(stdout, "committed instructions") {
		t.Errorf("pipetrace summary missing from output:\n%s", stdout)
	}
	if strings.Contains(stderr, "internal error") {
		t.Errorf("recorder tap was not attached: %s", stderr)
	}
}

func TestAttribFlagPrintsEnergyWithTelemetryAttached(t *testing.T) {
	stdout, stderr, code := runMain(t, "-kernel", "aps", "-attrib")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if stdout == "" {
		t.Error("attrib run produced no output")
	}
	if strings.Contains(stderr, "internal error") {
		t.Errorf("telemetry tap was not attached: %s", stderr)
	}
}

func TestSessionsAndAttribCombined(t *testing.T) {
	_, stderr, code := runMain(t, "-kernel", "aps", "-sessions", "-attrib", "-stats")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stderr, "internal error") {
		t.Errorf("tap wiring broke under combined flags: %s", stderr)
	}
}
