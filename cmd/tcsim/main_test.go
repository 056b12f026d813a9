package main

import (
	"bytes"
	"strings"
	"testing"
)

// The exit-code contract, pinned in-process: -h/-help is a successful
// usage request (exit 0 with usage text — flag.ErrHelp used to exit 2
// like a typo), bad flags exit 2, and a fast runtime failure exits 1.
func TestRunExitCodes(t *testing.T) {
	for _, h := range []string{"-h", "-help"} {
		var stderr bytes.Buffer
		if code := run([]string{h}, &stderr); code != exitOK {
			t.Errorf("%s = %d, want %d", h, code, exitOK)
		}
		if !strings.Contains(stderr.String(), "-kernel") {
			t.Errorf("%s did not print usage: %q", h, stderr.String())
		}
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-m", "-1"},
		{"-sms", "bogus"},
		{"-sched", "fifo"},
	} {
		if code := run(args, &bytes.Buffer{}); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
	if code := run([]string{"-sizes", "bogus"}, &bytes.Buffer{}); code != exitFailed {
		t.Errorf("bad -sizes entry = %d, want %d", code, exitFailed)
	}
}

// Negative or absurd dimension/SM/worker flags must be rejected at the
// flag boundary instead of panicking inside the kernel generators or
// being silently ignored.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		m, n, k      int
		sms, workers int
		tlActive     int
		scheduler    string
		ok           bool
	}{
		{"defaults", 256, 256, 256, 0, 0, 0, "gto", true},
		{"lrr", 64, 64, 64, 16, 2, 0, "lrr", true},
		{"twolevel", 64, 64, 64, 16, 2, 0, "twolevel", true},
		{"max bounds", maxDim, maxDim, maxDim, maxSMs, maxWorkers, 0, "gto", true},
		{"negative m", -64, 256, 256, 0, 0, 0, "gto", false},
		{"zero n", 256, 0, 256, 0, 0, 0, "gto", false},
		{"huge k", 256, 256, maxDim + 1, 0, 0, 0, "gto", false},
		{"negative sms", 256, 256, 256, -5, 0, 0, "gto", false},
		{"huge sms", 256, 256, 256, maxSMs + 1, 0, 0, "gto", false},
		{"negative workers", 256, 256, 256, 0, -1, 0, "gto", false},
		{"tlactive", 256, 256, 256, 0, 0, 8, "twolevel", true},
		{"negative tlactive", 256, 256, 256, 0, 0, -1, "gto", false},
		{"huge tlactive", 256, 256, 256, 0, 0, maxTLActive + 1, "gto", false},
		{"bad scheduler", 256, 256, 256, 0, 0, 0, "fifo", false},
	}
	for _, c := range cases {
		err := validateFlags(c.m, c.n, c.k, c.sms, c.workers, c.tlActive, c.scheduler)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
