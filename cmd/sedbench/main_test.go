package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownExperiment pins that a misspelt -experiment fails
// and names the valid experiments instead of running nothing.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run("dispatch", runConfig{})
	if err == nil {
		t.Fatal("unknown experiment ran without error")
	}
	for _, name := range append([]string{"all"}, experiments...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
