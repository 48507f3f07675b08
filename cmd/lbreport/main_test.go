package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// -only renders exactly the one requested experiment as a report.
func TestOnlyRendersOneTable(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-quick", "-only", "e9"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	report := out.String()
	if !strings.HasPrefix(report, "# detlb experiment report (quick size)\n") {
		t.Fatalf("report title missing:\n%s", report)
	}
	if n := strings.Count(report, "\n## "); n != 1 {
		t.Fatalf("want 1 table, got %d:\n%s", n, report)
	}
	if !strings.Contains(report, "\n## E9") {
		t.Fatalf("report does not hold E9:\n%s", report)
	}
}

// An unknown experiment ID is a usage error, like a bad flag.
func TestOnlyUnknownExits2(t *testing.T) {
	if code := run([]string{"-quick", "-only", "E99"}, io.Discard); code != 2 {
		t.Fatalf("unknown -only id: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, io.Discard); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}
