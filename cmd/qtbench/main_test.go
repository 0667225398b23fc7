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
// and exits 1 — even when other ids in the list are valid. The retired ids
// (F12–F19) are unknown like any other.
func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "F3,F13", "-exp", "f99", "-exp", "F12,F16,F17,F19"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran experiments before rejecting the list:\n%s", stdout.String())
	}
	want := "qtbench: unknown experiment F13, F99, F12, F16, F17, F19 (have T1, T2, F1, F2, F3, F4, F5, F6, F7, F8, F9, F10, F11)\n"
	if got := stderr.String(); got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}

// TestSelectKeepsSuiteOrder: a valid list runs in suite order, each once.
func TestSelectKeepsSuiteOrder(t *testing.T) {
	specs, err := selectSpecs(experiments.QuickSpecs(1), []string{"F11", "T2", "F11"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range specs {
		got = append(got, s.ID)
	}
	if strings.Join(got, ",") != "T2,F11" {
		t.Fatalf("selected %v, want [T2 F11]", got)
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
