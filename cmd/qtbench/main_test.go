package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"qtrade/internal/experiments"
)

// TestUnknownExperimentFails: an -exp list with an id that names no
// experiment runs nothing, names every unknown id, lists the ids there are
// and exits 1 — even when other ids in the list are valid.
func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "F3,F13", "-exp", "f99"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran experiments before rejecting the list:\n%s", stdout.String())
	}
	msg := stderr.String()
	for _, want := range []string{"F13", "F99", "have T1, T2, F1,", "F19"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stderr %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "unknown experiment F3") {
		t.Fatalf("stderr %q calls the valid F3 unknown", msg)
	}
}

// TestSelectKeepsSuiteOrder: a valid list runs in suite order, each once.
func TestSelectKeepsSuiteOrder(t *testing.T) {
	specs, err := selectSpecs(experiments.QuickSpecs(1), []string{"F12", "T2", "F12"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range specs {
		got = append(got, s.ID)
	}
	if strings.Join(got, ",") != "T2,F12" {
		t.Fatalf("selected %v, want [T2 F12]", got)
	}
}

// TestHelpListsThreeFlags: qtbench prints tables and takes nothing but
// -exp, -full and -seed.
func TestHelpListsThreeFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code %d", code)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(stderr.String(), -1) {
		flags = append(flags, m[1])
	}
	if strings.Join(flags, ",") != "exp,full,seed" {
		t.Fatalf("-h lists %v, want [exp full seed]:\n%s", flags, stderr.String())
	}
}
