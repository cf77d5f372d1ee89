package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMainProcess is not a test of its own: run as a child of manetsimExit
// with the command line after "--", it becomes the manetsim command.
func TestMainProcess(t *testing.T) {
	i := slices.Index(os.Args, "--")
	if i < 0 {
		return
	}
	os.Args = append([]string{"manetsim"}, os.Args[i+1:]...)
	flag.CommandLine = flag.NewFlagSet("manetsim", flag.ExitOnError)
	main()
	os.Exit(0)
}

// manetsimExit runs the manetsim command with args in a child process and
// returns its exit code, standard output and standard error.
func manetsimExit(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainProcess$", "--"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("manetsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestLeftoverArgumentsRejected: a word the flag parser leaves over — the
// removed bench subcommand or a stray trailing word — is an error with the
// usage text, not a default run that exits 0.
func TestLeftoverArgumentsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"bench", "-json"},
		{"-hops", "4", "extra"},
	} {
		code, stdout, stderr := manetsimExit(t, args...)
		if code != 2 {
			t.Errorf("manetsim %v exits %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("manetsim %v ran anyway: %q", args, stdout)
		}
		if !strings.Contains(stderr, "unexpected argument") || !strings.Contains(stderr, "-topology") {
			t.Errorf("manetsim %v: stderr lacks the error and the usage text:\n%s", args, stderr)
		}
	}
}

// TestServeStillDispatches: serve is still a subcommand with its own flag
// set, so an unknown flag after it is reported against serve's usage.
func TestServeStillDispatches(t *testing.T) {
	code, _, stderr := manetsimExit(t, "serve", "-no-such-flag")
	if code != 2 {
		t.Errorf("manetsim serve -no-such-flag exits %d, want 2", code)
	}
	if !strings.Contains(stderr, "-addr") || strings.Contains(stderr, "unexpected argument") {
		t.Errorf("serve did not parse its own flags:\n%s", stderr)
	}
}
