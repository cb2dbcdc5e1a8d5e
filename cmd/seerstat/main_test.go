package main

import (
	"bytes"
	"strings"
	"testing"
)

// seerstat runs the command in-process and returns its standard output.
func seerstat(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-workload", "intruder", "-scale", "0.05", "-threads", "4"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("seerstat %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// eventLines returns the lines of the -trace dump that follow its header.
func eventLines(t *testing.T, out string) []string {
	t.Helper()
	_, dump, found := strings.Cut(out, "\nLast 2000 runtime events (")
	if !found {
		t.Fatalf("no event dump in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	return lines[1:] // lines[0] is the rest of the header
}

// TestTraceDumpUnderEveryPolicy: -trace N prints the retained events whether
// or not the policy has a scheduler section to print before them.
func TestTraceDumpUnderEveryPolicy(t *testing.T) {
	for _, pol := range []string{"RTM", "Seer"} {
		out := seerstat(t, "-policy", pol, "-trace", "2000")
		if got := len(eventLines(t, out)); got != 2000 {
			t.Errorf("-policy %s -trace 2000 dumped %d events, want 2000", pol, got)
		}
		if hasScheme := strings.Contains(out, "Locking scheme (locksToAcquire)"); hasScheme != (pol == "Seer") {
			t.Errorf("-policy %s: scheduler section printed = %v", pol, hasScheme)
		}
	}
}

// TestTraceKindsFilter: -trace-kinds keeps only the named kinds in the dump.
func TestTraceKindsFilter(t *testing.T) {
	lines := eventLines(t, seerstat(t, "-policy", "RTM", "-trace", "2000", "-trace-kinds", "abort"))
	if len(lines) == 0 {
		t.Fatalf("abort filter left nothing of a contended run's last 2000 events")
	}
	for _, ln := range lines {
		if !strings.Contains(ln, " abort ") {
			t.Errorf("filtered dump has a non-abort line: %q", ln)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-trace-kinds", "bogus"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("unknown kind: exit %d, stderr %q", code, stderr.String())
	}
}
